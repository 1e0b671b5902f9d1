package tcptransport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// awaitIdleWriters waits until no writer goroutine of n is running.
func awaitIdleWriters(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Stats().Writers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("node %v still runs %d writers", n.Ref().ID, n.Stats().Writers)
		}
		time.Sleep(time.Millisecond)
	}
}

// A writer runs only while its queue holds envelopes: a settled network
// with nothing clock-driven has no writer left, and a later send starts
// one that delivers and exits again.
func TestIdleWritersExit(t *testing.T) {
	ids := []string{"abc", "123", "4b7"}
	var nodes []*Node
	for i, s := range ids {
		start := StartJoiner
		if i == 0 {
			start = StartSeed
		}
		n, err := start(p163, core.Options{}, id.MustParse(p163, s), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes[1:] {
		if err := n.Join(nodes[0].Ref()); err != nil {
			t.Fatal(err)
		}
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		awaitIdleWriters(t, n)
		if len(n.QueueDepths()) == 0 {
			t.Errorf("node %v lists no queues after joining", n.Ref().ID)
		}
	}

	// A CpRst after the network went quiet: the receiver must get it and
	// the sender its CpRly, each through a freshly started writer.
	a, b := nodes[1], nodes[2]
	receivedCpRly := func() int64 {
		c := a.Counters()
		return int64(c.ReceivedOf(msg.TCpRly))
	}
	rst, rly := receivedCpRst(b), receivedCpRly()
	if err := a.sendAll([]msg.Envelope{{From: a.Ref(), To: b.Ref(), Msg: msg.CpRst{Level: 0}}}); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "CpRst received", func() int64 { return receivedCpRst(b) }, rst+1)
	awaitInt64(t, "CpRly received", receivedCpRly, rly+1)
	for _, n := range nodes {
		awaitIdleWriters(t, n)
	}
}

// At most one writer drains a queue at a time, so per-sender FIFO order
// holds across writer exits and restarts: eight senders enqueue
// sequenced envelopes, pausing until the writer has exited every 50, and
// the receiver sees each envelope exactly once and in order.
func TestWriterHandoffKeepsOrder(t *testing.T) {
	const senders, perSender = 8, 1000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seqs []uint64
		done sync.WaitGroup
	)
	done.Add(1)
	go func() {
		defer done.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			done.Add(1)
			go func() {
				defer done.Done()
				defer conn.Close()
				for {
					payload, _, err := readFrame(conn, maxFrameBytes, 0)
					if err != nil {
						return
					}
					mu.Lock()
					err = wire.DecodePayload(p163, payload, func(env msg.Envelope) error {
						seqs = append(seqs, env.Msg.(*msg.Ping).Seq)
						return nil
					})
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
	}()
	defer done.Wait()
	defer ln.Close()

	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a30"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	to := table.Ref{ID: id.MustParse(p163, "f30"), Addr: ln.Addr().String()}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if i%50 == 0 {
					for n.writers.Load() != 0 {
						time.Sleep(100 * time.Microsecond)
					}
				}
				env := msg.Envelope{From: n.Ref(), To: to, Msg: &msg.Ping{Seq: uint64(s)<<32 | uint64(i), Origin: n.Ref()}}
				if err := n.sendAll([]msg.Envelope{env}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	awaitInt64(t, "envelopes received", func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return int64(len(seqs))
	}, senders*perSender)
	awaitIdleWriters(t, n)

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != senders*perSender {
		t.Fatalf("received %d envelopes, want %d", len(seqs), senders*perSender)
	}
	next := make([]uint64, senders)
	for _, seq := range seqs {
		s, i := seq>>32, seq&(1<<32-1)
		if i != next[s] {
			t.Fatalf("sender %d: envelope %d arrived when %d was due", s, i, next[s])
		}
		next[s]++
	}
}

// Close in the middle of a burst to an unreachable peer dead-letters
// every envelope exactly once — the writer's in-flight batch and
// everything still queued — returns as soon as the writer's dial gives
// up, and leaves no writer running.
func TestCloseDuringBurst(t *testing.T) {
	dialer := newParkingDialer()
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a31"), "127.0.0.1:0",
		WithConfig(Config{dial: dialer.dial}))
	if err != nil {
		t.Fatal(err)
	}
	dead := table.Ref{ID: id.MustParse(p163, "b31"), Addr: "127.0.0.1:1"}
	const burst = 1000
	for i := 0; i < burst; i++ {
		if err := n.sendAll([]msg.Envelope{{From: n.Ref(), To: dead, Msg: msg.JoinWait{}}}); err != nil {
			t.Fatal(err)
		}
	}
	// The writer is parked in its dial with its batch in hand; the rest
	// of the burst waits in the queue.
	awaitInt64(t, "parked dials", dialer.parked.Load, 1)
	n.peersMu.Lock()
	queued := n.peers[dead.Addr].depth()
	n.peersMu.Unlock()
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	// Close dead-letters the queue before it waits for the writer.
	awaitInt64(t, "queued envelopes dead-lettered", func() int64 {
		c := n.Counters()
		return int64(c.DroppedOf(msg.TJoinWait))
	}, int64(queued))
	began := time.Now()
	close(dialer.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > 2*time.Second {
		t.Errorf("Close took %v after the writer's dial failed", took)
	}
	c := n.Counters()
	if got := c.DroppedOf(msg.TJoinWait); got != burst {
		t.Errorf("dead-lettered %d of %d envelopes", got, burst)
	}
	if w := n.writers.Load(); w != 0 {
		t.Errorf("%d writers still running after Close", w)
	}
	if err := n.sendAll([]msg.Envelope{{From: n.Ref(), To: dead, Msg: msg.JoinWait{}}}); err == nil {
		t.Error("send after Close accepted")
	}
}
