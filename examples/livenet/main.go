// Live network: the join protocol running for real — over actual TCP
// sockets on localhost, then over TCP with an injected 10% write-drop
// rate plus periodic connection kills to show the reliable-delivery
// layer (retry + backoff + redial) earning the paper's reliable-network
// assumption. The same composed node the simulator drives runs both; no
// simulation involved.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/transport/tcptransport"
)

func main() {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	p := id.Params{B: 16, D: 4}
	if err := runTCP(p); err != nil {
		log.Error("TCP runtime failed", "err", err)
		os.Exit(1)
	}
	if err := runLossyTCP(p); err != nil {
		log.Error("lossy TCP runtime failed", "err", err)
		os.Exit(1)
	}
}

// runTCP joins 12 nodes over real localhost TCP connections.
func runTCP(p id.Params) error {
	fmt.Println("== TCP runtime: 12 nodes over localhost sockets ==")
	rng := rand.New(rand.NewSource(9))
	seen := make(map[id.ID]bool)
	draw := func() id.ID {
		for {
			x := id.Random(p, rng)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	seed, err := tcptransport.StartSeed(p, core.Options{}, draw(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer seed.Close()
	fmt.Printf("seed %v listening on %s\n", seed.Ref().ID, seed.Ref().Addr)

	start := time.Now()
	nodes := []*tcptransport.Node{seed}
	for i := 0; i < 11; i++ {
		n, err := tcptransport.StartJoiner(p, core.Options{}, draw(), "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer n.Close()
		if err := n.Join(seed.Ref()); err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, n := range nodes[1:] {
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			return err
		}
	}
	fmt.Printf("11 TCP joins completed in %v\n", time.Since(start).Round(time.Millisecond))
	for _, n := range nodes {
		c := n.Counters()
		fmt.Printf("  node %v @ %-21s status %-9v  sent %3d msgs (%d bytes)\n",
			n.Ref().ID, n.Ref().Addr, n.Status(), c.TotalSent(), c.BytesSent)
	}
	return nil
}

// runLossyTCP joins 8 nodes over TCP while the fault injector drops 10%
// of write attempts and kills every 30th connection write; the delivery
// layer's retries keep every join on track.
func runLossyTCP(p id.Params) error {
	fmt.Println("\n== lossy TCP runtime: 8 nodes, 10% write drops + connection kills ==")
	faults := tcptransport.NewFaults(3)
	faults.DropRate = 0.10
	faults.KillEvery = 30
	opts := []tcptransport.Option{
		tcptransport.WithFaults(faults),
		tcptransport.WithMaxAttempts(10),
		tcptransport.WithBackoff(2*time.Millisecond, 50*time.Millisecond),
	}

	rng := rand.New(rand.NewSource(17))
	seen := make(map[id.ID]bool)
	draw := func() id.ID {
		for {
			x := id.Random(p, rng)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	seed, err := tcptransport.StartSeed(p, core.Options{}, draw(), "127.0.0.1:0", opts...)
	if err != nil {
		return err
	}
	defer seed.Close()

	start := time.Now()
	nodes := []*tcptransport.Node{seed}
	for i := 0; i < 7; i++ {
		n, err := tcptransport.StartJoiner(p, core.Options{}, draw(), "127.0.0.1:0", opts...)
		if err != nil {
			return err
		}
		defer n.Close()
		if err := n.Join(seed.Ref()); err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, n := range nodes[1:] {
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			return err
		}
	}
	retried, dropped := 0, 0
	for _, n := range nodes {
		c := n.Counters()
		retried += c.TotalRetried()
		dropped += c.TotalDropped()
	}
	fmt.Printf("7 joins completed in %v despite %d injected drops and %d kills\n",
		time.Since(start).Round(time.Millisecond), faults.Drops(), faults.Kills())
	fmt.Printf("delivery layer: %d retries, %d dead-letters\n", retried, dropped)
	return nil
}
