package overlay

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

var p164 = id.Params{B: 16, D: 4}

func TestConstantLatency(t *testing.T) {
	f := ConstantLatency(7 * time.Millisecond)
	if got := f(table.Ref{}, table.Ref{}); got != 7*time.Millisecond {
		t.Errorf("latency = %v", got)
	}
}

func TestHashedUniformLatency(t *testing.T) {
	p := id.Params{B: 16, D: 8}
	rng := rand.New(rand.NewSource(1))
	refs := RandomRefs(p, 20, rng, nil)
	f := HashedUniformLatency(5*time.Millisecond, 50*time.Millisecond, 9)
	for i := 0; i < len(refs); i++ {
		for j := 0; j < len(refs); j++ {
			l := f(refs[i], refs[j])
			if l < 5*time.Millisecond || l >= 50*time.Millisecond {
				t.Fatalf("latency %v out of range", l)
			}
			if l != f(refs[j], refs[i]) {
				t.Fatal("latency not symmetric")
			}
			if l != f(refs[i], refs[j]) {
				t.Fatal("latency not deterministic")
			}
		}
	}
	// Degenerate range.
	g := HashedUniformLatency(5*time.Millisecond, 5*time.Millisecond, 9)
	if got := g(refs[0], refs[1]); got != 5*time.Millisecond {
		t.Errorf("degenerate range latency = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("inverted range did not panic")
			}
		}()
		HashedUniformLatency(10*time.Millisecond, 5*time.Millisecond, 0)
	}()
}

func TestRandomRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	taken := make(map[id.ID]bool)
	a := RandomRefs(p164, 100, rng, taken)
	b := RandomRefs(p164, 100, rng, taken)
	seen := make(map[id.ID]bool)
	for _, r := range append(a, b...) {
		if seen[r.ID] {
			t.Fatalf("duplicate ID %v", r.ID)
		}
		seen[r.ID] = true
		if r.Addr == "" {
			t.Fatal("empty address")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overfull draw did not panic")
			}
		}()
		RandomRefs(id.Params{B: 2, D: 3}, 9, rng, nil)
	}()
}

func TestBuildDirectIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New(Config{Params: p164})
	net.BuildDirect(RandomRefs(p164, 200, rng, nil), rng)
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("BuildDirect inconsistent: %v", v[0])
	}
	if v := netcheck.AllStatesS(p164, net.Tables()); len(v) != 0 {
		t.Fatalf("BuildDirect states: %v", v[0])
	}
	if net.Size() != 200 {
		t.Errorf("Size = %d", net.Size())
	}
	if got := len(net.Members()); got != 200 {
		t.Errorf("Members = %d", got)
	}
}

func TestBuildByJoinsIsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := New(Config{Params: p164})
	if err := net.BuildByJoins(RandomRefs(p164, 30, rng, nil), rng); err != nil {
		t.Fatal(err)
	}
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("BuildByJoins inconsistent: %v", v[0])
	}
	if got := len(net.Joins()); got != 29 {
		t.Errorf("join records = %d, want 29", got)
	}
}

func TestBuildByJoinsEmpty(t *testing.T) {
	net := New(Config{Params: p164})
	if err := net.BuildByJoins(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty BuildByJoins did not error")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 2, rng, nil)
	net.AddSeed(refs[0])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate AddSeed did not panic")
			}
		}()
		net.AddSeed(refs[0])
	}()
}

func TestConcurrentWave(t *testing.T) {
	res, err := RunWave(WaveConfig{Params: p164, N: 100, M: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSNodes {
		t.Fatal("some joiners did not become S-nodes (Theorem 2 violated)")
	}
	if !res.Consistent() {
		t.Fatalf("network inconsistent (Theorem 1 violated): %v", res.Violations[0])
	}
	if len(res.Records) != 60 {
		t.Fatalf("records = %d", len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.Ended < rec.Started {
			t.Errorf("join %v ended before it started", rec.Ref.ID)
		}
		// Theorem 3.
		if got := rec.CpRstSent + rec.JoinWaitSent; got > p164.D+1 {
			t.Errorf("join %v sent %d CpRst+JoinWait > d+1", rec.Ref.ID, got)
		}
		if rec.JoinNotiSent < 0 || rec.BytesSent <= 0 {
			t.Errorf("implausible record %+v", rec)
		}
	}
	if res.MeanJoinNoti() <= 0 {
		t.Errorf("mean JoinNoti = %v", res.MeanJoinNoti())
	}
	if res.VirtualDuration <= 0 || res.Events == 0 {
		t.Errorf("duration %v events %d", res.VirtualDuration, res.Events)
	}
}

func TestWaveWithTopologyLatency(t *testing.T) {
	topo, err := topology.Generate(topology.Small(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWave(WaveConfig{Params: p164, N: 80, M: 40, Seed: 11, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSNodes || !res.Consistent() {
		t.Fatalf("topology wave failed: S-nodes=%v violations=%d", res.AllSNodes, len(res.Violations))
	}
}

func TestWaveStaggered(t *testing.T) {
	res, err := RunWave(WaveConfig{Params: p164, N: 60, M: 40, Seed: 13, Stagger: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSNodes || !res.Consistent() {
		t.Fatal("staggered wave failed")
	}
	// With staggering, join start times must differ.
	starts := make(map[time.Duration]bool)
	for _, rec := range res.Records {
		starts[rec.Started] = true
	}
	if len(starts) < 2 {
		t.Error("staggered starts all identical")
	}
}

func TestWaveInvalidConfig(t *testing.T) {
	if _, err := RunWave(WaveConfig{Params: p164, N: 0, M: 5}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RunWave(WaveConfig{Params: p164, N: 5, M: -1}); err == nil {
		t.Error("m<0 accepted")
	}
}

func TestWaveReproducible(t *testing.T) {
	run := func() []int {
		res, err := RunWave(WaveConfig{Params: p164, N: 50, M: 30, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return res.JoinNoti
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("JoinNoti diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestJoinsAndPending(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 10, rng, nil)
	net.BuildDirect(refs[:5], rng)
	for _, r := range refs[5:] {
		net.ScheduleJoin(r, refs[0], 0)
	}
	if got := net.PendingJoins(); got != 0 {
		// Joins are pending only once their start event fires.
		t.Logf("pending before run: %d", got)
	}
	net.Run()
	if got := net.PendingJoins(); got != 0 {
		t.Errorf("PendingJoins after quiescence = %d", got)
	}
	if got := len(net.Joins()); got != 5 {
		t.Errorf("Joins() = %d records, want 5", got)
	}
	if net.Delivered() == 0 {
		t.Error("no messages delivered")
	}
}

func TestAggregateTrafficMatchesPerNode(t *testing.T) {
	res := 0
	_ = res
	rng := rand.New(rand.NewSource(31))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 12, rng, nil)
	net.BuildDirect(refs[:6], rng)
	for _, r := range refs[6:] {
		net.ScheduleJoin(r, refs[rng.Intn(6)], 0)
	}
	net.Run()
	agg := net.AggregateTraffic()
	if agg.TotalSent() == 0 {
		t.Fatal("no traffic recorded")
	}
	// Every CpRst has exactly one CpRly, etc. (request/reply pairing).
	pairs := [][2]msg.Type{
		{msg.TCpRst, msg.TCpRly},
		{msg.TJoinWait, msg.TJoinWaitRly},
		{msg.TJoinNoti, msg.TJoinNotiRly},
		{msg.TSpeNoti, msg.TSpeNotiRly},
	}
	for _, pair := range pairs {
		if agg.SentOf(pair[0]) != agg.SentOf(pair[1]) {
			t.Errorf("%v sent %d but %v sent %d", pair[0], agg.SentOf(pair[0]), pair[1], agg.SentOf(pair[1]))
		}
	}
	// All sent messages were delivered (reliable network).
	for _, typ := range msg.Types() {
		if agg.SentOf(typ) != agg.ReceivedOf(typ) {
			t.Errorf("%v: sent %d != received %d", typ, agg.SentOf(typ), agg.ReceivedOf(typ))
		}
	}
}

func TestTopologyLatencyUnboundPanics(t *testing.T) {
	topo, err := topology.Generate(topology.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTopologyLatency(topo)
	f := tl.Func()
	defer func() {
		if recover() == nil {
			t.Error("unbound latency query did not panic")
		}
	}()
	p := id.Params{B: 4, D: 3}
	f(table.Ref{ID: id.MustParse(p, "000")}, table.Ref{ID: id.MustParse(p, "111")})
}

// TestMediumScaleWaves runs several parameter combinations closer to the
// paper's setups (hex digits, larger N) and asserts Theorems 1-3 in each.
func TestMediumScaleWaves(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale waves")
	}
	cases := []WaveConfig{
		{Params: id.Params{B: 16, D: 8}, N: 300, M: 150, Seed: 1},
		{Params: id.Params{B: 16, D: 40}, N: 200, M: 100, Seed: 2},
		{Params: id.Params{B: 4, D: 6}, N: 150, M: 150, Seed: 3},
		{Params: id.Params{B: 2, D: 10}, N: 100, M: 80, Seed: 4},
		{Params: id.Params{B: 16, D: 8}, N: 300, M: 150, Seed: 5,
			Opts: core.Options{ReduceLevels: true, BitVector: true}},
	}
	for i, cfg := range cases {
		cfg := cfg
		t.Run(fmt.Sprintf("case%d_b%d_d%d", i, cfg.Params.B, cfg.Params.D), func(t *testing.T) {
			t.Parallel()
			res, err := RunWave(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllSNodes {
				t.Fatal("Theorem 2 violated")
			}
			if !res.Consistent() {
				t.Fatalf("Theorem 1 violated: %v", res.Violations[0])
			}
			for _, rec := range res.Records {
				if rec.CpRstSent+rec.JoinWaitSent > cfg.Params.D+1 {
					t.Errorf("Theorem 3 violated for %v", rec.Ref.ID)
				}
			}
		})
	}
}

func TestJoinWaveUnderLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := New(Config{
		Params: p164,
		Loss:   &Loss{Rate: 0.10, RetryDelay: 20 * time.Millisecond, MaxAttempts: 8, Seed: 33},
	})
	refs := RandomRefs(p164, 40, rng, nil)
	net.BuildDirect(refs[:20], rng)
	joiners := make([]*core.Machine, 0, 20)
	for _, r := range refs[20:] {
		g0 := refs[rng.Intn(20)]
		joiners = append(joiners, net.ScheduleJoin(r, g0, 0))
	}
	net.Run()
	for i, m := range joiners {
		if !m.IsSNode() {
			t.Fatalf("joiner %v (%d) stuck in %v under loss", m.Self().ID, i, m.Status())
		}
	}
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("network inconsistent under loss: %v (of %d)", v[0], len(v))
	}
	if net.Retransmits() == 0 {
		t.Error("10% loss produced no retransmissions; loss model inert")
	}
	if net.LostMessages() != 0 {
		t.Errorf("%d messages dead-lettered at 10%% loss with 8 attempts", net.LostMessages())
	}
	t.Logf("delivered=%d retransmits=%d lost=%d", net.Delivered(), net.Retransmits(), net.LostMessages())
}

func TestLossDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		rng := rand.New(rand.NewSource(5))
		net := New(Config{Params: p164, Loss: &Loss{Rate: 0.2, Seed: 9}})
		refs := RandomRefs(p164, 12, rng, nil)
		net.BuildDirect(refs[:6], rng)
		for _, r := range refs[6:] {
			net.ScheduleJoin(r, refs[0], 0)
		}
		net.Run()
		return net.Delivered(), net.Retransmits()
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Fatalf("lossy run not deterministic: (%d,%d) vs (%d,%d)", d1, r1, d2, r2)
	}
}
