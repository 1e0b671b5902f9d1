package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
	"hypercube/internal/transport/tcptransport"
)

// tcpFleet joins nodes into a fleet over real loopback TCP sockets, all
// in this process (loopback, not a real link), with the stack the
// daemon ships by default. Each round builds a warm fleet by sequential
// joins and pre-starts the joiners (set-up); then a fixed number of
// closed-loop clients each take the next joiner, call Join through a
// random warm member and wait for in_system (timed). One op is one join;
// its latency is wall time from the Join call. tcptransport (framing,
// per-peer queues, the node lock, goroutines, syscalls) and wire
// dominate; core runs the same code as in sim_join_paper.
//
// The fleet only grows: a Leave interleaved with Joins wedged nodes in
// "leaving" while this was sized, so no round churns.
type tcpFleet struct {
	warm, joiners int
	clients       int
	singletons    int // joins into a 1-node network, for the transport floor
	probeIters    int

	lastTables map[id.ID]*table.Table
}

func newTCPFleet(s scale) workload {
	if s == toy {
		return &tcpFleet{warm: 8, joiners: 8, clients: 2, singletons: 5, probeIters: 20}
	}
	return &tcpFleet{warm: 64, joiners: 128, clients: 2, singletons: 200, probeIters: 1000}
}

// minFiles is the descriptor limit a full-size fleet needs: each node
// holds about 53 (a listener plus a socket per direction per neighbor).
const minFiles = 16384

func checkFileLimit(nodes int) error {
	if nodes*64 < 1024 {
		return nil // a toy fleet fits any limit
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	if lim.Cur < minFiles {
		return fmt.Errorf("RLIMIT_NOFILE is %d; tcp_join_fleet needs %d for %d nodes (raise it with ulimit -n; the fleet is not shrunk to fit)", lim.Cur, minFiles, nodes)
	}
	return nil
}

const joinTimeout = 10 * time.Second

func (w *tcpFleet) options(seed int64) []tcptransport.Option {
	return []tcptransport.Option{
		tcptransport.WithLiveness(liveness.Config{}),
		tcptransport.WithAntiEntropy(antientropy.Config{}),
		tcptransport.WithSampling(sampling.Config{Seed: seed}),
		// The default 20 ms poll would quantise the join latency.
		tcptransport.WithPollInterval(200 * time.Microsecond),
	}
}

// joinAndWait is one op: Join through the bootstrap, then wait for
// in_system.
func joinAndWait(r *recorder, n *tcptransport.Node, bootstrap table.Ref, parent, op int) (call, total time.Duration, err error) {
	span := r.begin("join", parent, op)
	defer r.end(span)
	t0 := time.Now()
	jid := r.begin("tcptransport.Join", span, op)
	err = n.Join(bootstrap)
	r.end(jid)
	call = time.Since(t0)
	if err != nil {
		return call, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), joinTimeout)
	defer cancel()
	aid := r.begin("tcptransport.AwaitStatus", span, op)
	err = n.AwaitStatus(ctx, core.StatusInSystem)
	r.end(aid)
	return call, time.Since(t0), err
}

func totals(nodes []*tcptransport.Node) (c msg.Counters, rejected int) {
	for _, n := range nodes {
		nc := n.Counters()
		c.Add(&nc)
		rejected += n.GuardStats().Rejected
	}
	return c, rejected
}

func (w *tcpFleet) round(seed int64, r *recorder) {
	if err := checkFileLimit(w.warm + w.joiners); err != nil {
		r.abort(err)
		return
	}
	p := paperParams
	rng := rand.New(rand.NewSource(seed))
	opts, options := daemonOptions(), w.options(seed)
	var nodes []*tcptransport.Node
	defer func() {
		closing := r.call("tcptransport.Close", func() {
			for _, n := range nodes {
				n.Close()
			}
		})
		r.layer("tcptransport.close_s", closing.Seconds())
	}()
	taken := make(map[id.ID]bool)
	newID := func() id.ID {
		for {
			if x := id.Random(p, rng); !taken[x] {
				taken[x] = true
				return x
			}
		}
	}
	start := func(seedNode bool) *tcptransport.Node {
		var n *tcptransport.Node
		var err error
		d := r.call("tcptransport.StartNode", func() {
			if seedNode {
				n, err = tcptransport.StartSeed(p, opts, newID(), "127.0.0.1:0", options...)
			} else {
				n, err = tcptransport.StartJoiner(p, opts, newID(), "127.0.0.1:0", options...)
			}
		})
		if err != nil {
			r.abort(fmt.Errorf("seed %d: start node: %w", seed, err))
			return nil
		}
		r.layer("tcptransport.start_node_ms", float64(d)/1e6)
		nodes = append(nodes, n)
		return n
	}

	// Set-up: the warm fleet, by sequential joins, and the idle joiners.
	t0 := time.Now()
	if start(true) == nil {
		return
	}
	for i := 1; i < w.warm; i++ {
		n := start(false)
		if n == nil {
			return
		}
		if _, _, err := joinAndWait(r, n, nodes[rng.Intn(i)].Ref(), r.roundSpan, -1); err != nil {
			r.abort(fmt.Errorf("seed %d: warm-up join %d: %w", seed, i, err))
			return
		}
	}
	for i := 0; i < w.joiners; i++ {
		if start(false) == nil {
			return
		}
	}
	r.setup(time.Since(t0))
	warm, joiners := nodes[:w.warm], nodes[w.warm:]
	bootstraps := make([]table.Ref, len(joiners))
	for i := range bootstraps {
		bootstraps[i] = warm[rng.Intn(len(warm))].Ref()
	}
	before, rejectedBefore := totals(nodes)

	// Timed: closed loop, every client waits for its join to complete.
	var (
		next     atomic.Int64
		mu       sync.Mutex
		walls    []time.Duration
		calls    []time.Duration
		failed   int
		wg       sync.WaitGroup
		depthMax int
		stop     = make(chan struct{})
		sampled  = make(chan struct{})
	)
	if r.tracing { // queue depths, sampled while the joins run
		go func() {
			defer close(sampled)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, n := range nodes[:w.warm+int(min(next.Load(), int64(w.joiners)))] {
						for _, d := range n.QueueDepths() {
							depthMax = max(depthMax, d)
						}
					}
				}
			}
		}()
	} else {
		close(sampled)
	}
	timedSpan := r.begin("timed", r.roundSpan, r.round)
	r.resume()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(joiners) {
					return
				}
				call, wall, err := joinAndWait(r, joiners[i], bootstraps[i], timedSpan, i)
				mu.Lock()
				if err != nil {
					failed++
					r.failf("seed %d: join %d: %v", seed, i, err)
				} else {
					walls = append(walls, wall)
					calls = append(calls, call)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.pause()
	r.end(timedSpan)
	close(stop)
	<-sampled

	after, rejectedAfter := totals(nodes)
	ops := len(walls)
	r.commit(ops, failed, after.TotalSent()-before.TotalSent(), after.BytesSent-before.BytesSent)
	var wallMs []float64
	for _, d := range walls {
		r.latency(d)
		wallMs = append(wallMs, float64(d)/1e6)
	}
	for _, d := range calls {
		r.layer("tcptransport.join_call_us", float64(d)/1e3)
	}
	r.layer("tcptransport.join_wall_p99_ms", percentile(wallMs, 0.99))
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		r.layer("tcptransport.fds_per_node", float64(len(fds))/float64(len(nodes)))
	}
	r.layer("tcptransport.goroutines_per_node", float64(runtime.NumGoroutine())/float64(len(nodes)))
	r.layer("tcptransport.queue_depth_max", float64(depthMax))
	if ops > 0 {
		n := float64(ops)
		bigSent := after.BigSent() - before.BigSent()
		r.layer("msg.big_per_op", float64(bigSent)/n)
		r.layer("msg.small_per_op", float64(after.TotalSent()-before.TotalSent()-bigSent)/n)
		r.layer("msg.joinnoti_per_join", float64(after.SentOf(msg.TJoinNoti)-before.SentOf(msg.TJoinNoti))/n)
		r.layer("tcptransport.retried_per_op", float64(after.TotalRetried()-before.TotalRetried())/n)
		dropped := after.TotalDropped() - before.TotalDropped()
		r.layer("tcptransport.dropped_per_op", float64(dropped)/n)
		if dropped > 0 {
			r.failf("seed %d: the delivery layer dead-lettered %d messages", seed, dropped)
		}
		r.layer("guard.rejected_per_op", float64(rejectedAfter-rejectedBefore)/n)
		var sum float64
		var count uint64
		for _, j := range joiners {
			h := j.Metrics().Histogram("hypercube_join_duration_seconds", "", nil)
			sum += h.Sum()
			count += h.Count()
		}
		if count > 0 {
			r.layer("tcptransport.join_internal_mean_ms", 1e3*sum/float64(count))
		}
	}

	// Correctness: the fleet's tables, rebuilt from every node's snapshot,
	// must be consistent (Theorem 1). Replies still in flight when the last
	// joiner turned in_system get a moment to land.
	var violations []netcheck.Violation
	var tables map[id.ID]*table.Table
	var verify time.Duration
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tables = make(map[id.ID]*table.Table, len(nodes))
		for _, n := range nodes {
			snap := n.Snapshot()
			t := table.New(p, snap.Owner())
			snap.ForEach(func(level, digit int, nb table.Neighbor) { t.Set(level, digit, nb) })
			tables[snap.Owner()] = t
		}
		verify = r.call("netcheck.CheckConsistency", func() { violations = netcheck.CheckConsistency(p, tables) })
		if len(violations) == 0 || failed > 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(violations) > 0 && failed == 0 {
		r.failf("seed %d: %d consistency violations in the fleet's tables, e.g. %v", seed, len(violations), violations[0])
	}
	r.layer("netcheck.verify_s", verify.Seconds())
	w.lastTables = tables
}

func (w *tcpFleet) probes(r *recorder) {
	probeLayers(r, paperParams, w.lastTables, r.cfg.seed, w.probeIters)

	// The transport's round-trip floor: a join into a network of one node
	// is a fixed exchange with no table to speak of.
	p := paperParams
	rng := rand.New(rand.NewSource(r.cfg.seed))
	opts, options := daemonOptions(), w.options(r.cfg.seed)
	var ms []float64
	for i := 0; i < w.singletons; i++ {
		seedNode, err := tcptransport.StartSeed(p, opts, id.Random(p, rng), "127.0.0.1:0", options...)
		if err != nil {
			r.failf("singleton probe: %v", err)
			return
		}
		joiner, err := tcptransport.StartJoiner(p, opts, id.Random(p, rng), "127.0.0.1:0", options...)
		if err != nil {
			seedNode.Close()
			r.failf("singleton probe: %v", err)
			return
		}
		_, wall, err := joinAndWait(r, joiner, seedNode.Ref(), -1, -1)
		joiner.Close()
		seedNode.Close()
		if err != nil {
			r.failf("singleton probe: %v", err)
			return
		}
		ms = append(ms, float64(wall)/1e6)
	}
	r.layer("tcptransport.join_singleton_ms_p50", median(ms))
}
