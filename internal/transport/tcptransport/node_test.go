package tcptransport

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
)

var p163 = id.Params{B: 16, D: 3}

func TestTCPSingleJoin(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "123"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	if err := joiner.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}
	// The joiner must know the seed and vice versa.
	k := seed.Ref().ID.CommonSuffixLen(joiner.Ref().ID)
	if got := joiner.Snapshot().Get(k, seed.Ref().ID.Digit(k)); got.ID != seed.Ref().ID {
		t.Errorf("joiner's table lacks seed: %+v", got)
	}
	waitForEntry(t, seed, k, joiner.Ref().ID.Digit(k), joiner.Ref().ID)
}

func waitForEntry(t *testing.T, n *Node, level, digit int, want id.ID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n.Snapshot().Get(level, digit).ID == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %v entry (%d,%d) never became %v", n.Ref().ID, level, digit, want)
}

func TestTCPConcurrentJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seen := make(map[id.ID]bool)
	draw := func() id.ID {
		for {
			x := id.Random(p163, rng)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	seed, err := StartSeed(p163, core.Options{}, draw(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	// All joiners start from separate goroutines through one bootstrap:
	// scheduler- and socket-driven interleaving, the harshest version of
	// "concurrent joins" (Theorems 1–3 under real concurrency).
	const joiners = 48
	nodes := make([]*Node, 0, joiners)
	for i := 0; i < joiners; i++ {
		n, err := StartJoiner(p163, core.Options{}, draw(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Join(seed.Ref()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for trailing InSysNoti/RvNghNotiRly traffic to settle, then
	// check global consistency of the collected snapshots.
	all := append([]*Node{seed}, nodes...)
	awaitStableTables(t, all)
	tables := make(map[id.ID]*table.Table, len(all))
	for _, n := range all {
		tbl := table.New(p163, n.Ref().ID)
		n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
			tbl.Set(level, digit, nb)
		})
		tables[n.Ref().ID] = tbl
	}
	if v := netcheck.CheckConsistency(p163, tables); len(v) != 0 {
		t.Fatalf("TCP network inconsistent: %v (of %d)", v[0], len(v))
	}
	for _, n := range nodes {
		c := n.Counters()
		if got := c.SentOf(msg.TCpRst) + c.SentOf(msg.TJoinWait); got > p163.D+1 {
			t.Errorf("node %v sent %d CpRst+JoinWait > d+1 (Theorem 3)", n.Ref().ID, got)
		}
	}
}

// awaitStableTables polls until no node's counters change across two
// consecutive samples 50ms apart — an empirical quiescence check.
func awaitStableTables(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var prev int
	stable := 0
	for time.Now().Before(deadline) {
		total := 0
		for _, n := range nodes {
			c := n.Counters()
			total += c.TotalSent()
		}
		if total == prev {
			stable++
			if stable >= 3 {
				return
			}
		} else {
			stable = 0
		}
		prev = total
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("network never quiesced")
}

func TestTCPGracefulLeave(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	seen := make(map[id.ID]bool)
	draw := func() id.ID {
		for {
			x := id.Random(p163, rng)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	seed, err := StartSeed(p163, core.Options{}, draw(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	nodes := []*Node{seed}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		n, err := StartJoiner(p163, core.Options{}, draw(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.Join(seed.Ref()); err != nil {
			t.Fatal(err)
		}
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	awaitStableTables(t, nodes)

	leaver := nodes[3]
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := leaver.AwaitStatus(ctx, core.StatusLeft); err != nil {
		t.Fatal(err)
	}
	awaitStableTables(t, nodes)
	for _, n := range nodes {
		if n == leaver {
			continue
		}
		n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
			if nb.ID == leaver.Ref().ID {
				t.Errorf("node %v still stores leaver at (%d,%d)", n.Ref().ID, level, digit)
			}
		})
	}
	// Remaining nodes stay consistent.
	tables := make(map[id.ID]*table.Table)
	for _, n := range nodes {
		if n == leaver {
			continue
		}
		tbl := table.New(p163, n.Ref().ID)
		n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
			tbl.Set(level, digit, nb)
		})
		tables[n.Ref().ID] = tbl
	}
	if v := netcheck.CheckConsistency(p163, tables); len(v) != 0 {
		t.Fatalf("TCP network inconsistent after leave: %v", v[0])
	}
}

func TestAwaitStatusTimeout(t *testing.T) {
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "777"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err == nil {
		t.Error("AwaitStatus on idle joiner returned nil")
	}
}

func TestCloseIdempotent(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "fff"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestStartErrors(t *testing.T) {
	if _, err := StartSeed(id.Params{B: 1, D: 1}, core.Options{}, id.ID{}, "127.0.0.1:0"); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "256.0.0.1:bad"); err == nil {
		t.Error("invalid listen address accepted")
	}
}

// A node with join timeouts but no failure detector must still run
// Machine.Tick: the tick loop starts for any clock-driven part, as the
// simulator's pump does. The joiner's first CpRst is dead-lettered, so
// only the machine's own resend can complete the join.
func TestTCPJoinTimeoutResendsWithoutLiveness(t *testing.T) {
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 50 * time.Millisecond}}
	seed, err := StartSeed(p163, opts, id.MustParse(p163, "a00"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	faults := newFaultyDialer(1)
	faults.setDropRate(1)
	joiner, err := StartJoiner(p163, opts, id.MustParse(p163, "b01"), "127.0.0.1:0",
		WithConfig(Config{dial: faults.dial}))
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	deadLettered := func() bool {
		c := joiner.Counters()
		return c.DroppedOf(msg.TCpRst) > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !deadLettered(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first CpRst was never dead-lettered")
		}
	}
	faults.setDropRate(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatalf("join never recovered from the lost CpRst: %v", err)
	}
}

// emfileListener fails every Accept the way a listener does when the
// process is out of file descriptors, and counts the calls.
type emfileListener struct {
	net.Listener // nil: only Accept is called
	accepts      atomic.Int64
}

func (l *emfileListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	return nil, syscall.EMFILE
}

// A failing Accept must not spin: the accept loop pauses 5ms, 10ms,
// 20ms, ... between failures, so 50ms of EMFILE costs four calls, not
// millions.
func TestAcceptLoopBacksOffOnError(t *testing.T) {
	ln := &emfileListener{}
	n := &Node{ln: ln, done: make(chan struct{})}
	n.wg.Add(1)
	go n.acceptLoop()
	time.Sleep(50 * time.Millisecond)
	close(n.done)
	n.wg.Wait()
	// Four calls fit; the slack is for a slow scheduler.
	if got := ln.accepts.Load(); got < 2 || got > 8 {
		t.Fatalf("%d Accept calls in 50ms of EMFILE, want 2..8", got)
	}
}
