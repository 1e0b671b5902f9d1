package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/netcheck"
	"hypercube/internal/topology"
)

func TestOptimizeReducesStretch(t *testing.T) {
	topo, err := topology.Generate(topology.Small(11))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	tl := NewTopologyLatency(topo)
	net := New(Config{Params: p164, Latency: tl.Func()})
	refs := RandomRefs(p164, 150, rng, nil)
	hosts := topo.AttachHosts(len(refs), rng)
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
	}
	net.BuildDirect(refs, rng)

	before := net.MeasureStretch(400, rand.New(rand.NewSource(1)))
	if before.Pairs == 0 || before.Mean < 1 {
		t.Fatalf("implausible baseline stretch: %+v", before)
	}
	st := net.OptimizeTables(2)
	if st.Improved == 0 {
		t.Fatal("optimization found nothing to improve on random tables")
	}
	if st.Considered < st.Improved {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	// Optimization must never break consistency (replacements carry the
	// desired suffix).
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("optimization broke consistency: %v", v[0])
	}
	after := net.MeasureStretch(400, rand.New(rand.NewSource(1)))
	if after.Mean >= before.Mean {
		t.Errorf("stretch did not improve: %.3f -> %.3f", before.Mean, after.Mean)
	}
	t.Logf("stretch %.3f -> %.3f (p95 %.3f -> %.3f, %d/%d entries switched)",
		before.Mean, after.Mean, before.P95, after.P95, st.Improved, st.Considered)
}

func TestOptimizeIdempotentAtFixedPoint(t *testing.T) {
	topo, err := topology.Generate(topology.Small(13))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	tl := NewTopologyLatency(topo)
	net := New(Config{Params: p164, Latency: tl.Func()})
	refs := RandomRefs(p164, 80, rng, nil)
	hosts := topo.AttachHosts(len(refs), rng)
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
	}
	net.BuildDirect(refs, rng)

	net.OptimizeTables(3)
	again := net.OptimizeTables(1)
	if again.Improved != 0 {
		// A second sweep over an unchanged candidate pool must be a no-op.
		t.Errorf("fixed point not reached: %d further improvements", again.Improved)
	}
}

func TestOptimizeAfterChurn(t *testing.T) {
	// Optimization composes with joins and leaves.
	topo, err := topology.Generate(topology.Small(15))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	tl := NewTopologyLatency(topo)
	net := New(Config{Params: p164, Latency: tl.Func()})
	refs := RandomRefs(p164, 100, rng, nil)
	hosts := topo.AttachHosts(len(refs)+30, rng)
	for i, ref := range refs {
		tl.Bind(ref.ID, hosts[i])
	}
	net.BuildDirect(refs, rng)
	if st := net.OptimizeTables(1); st.Improved == 0 {
		t.Fatal("optimization switched no entry: nothing was tested")
	}
	// Every reverse registration is backed by an entry: a node that
	// optimization moved off a holder's table is not announced that
	// holder's departure, and would wait for its acknowledgement.
	tables := net.Tables()
	for x := range tables {
		m, _ := net.Machine(x)
		for _, w := range m.ReverseNeighbors() {
			if !stores(tables[w.ID], x) {
				t.Fatalf("%v holds %v as a reverse neighbor that stores it nowhere", x, w.ID)
			}
		}
	}

	for i := 0; i < 10; i++ {
		if err := net.ScheduleLeave(refs[i].ID, net.Engine().Now()); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if gone := net.FinalizeLeaves(); len(gone) != 10 {
		t.Fatalf("%d of 10 leaves completed", len(gone))
	}
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("post-leave inconsistent: %v", v[0])
	}
	net.OptimizeTables(1)
	if v := netcheck.CheckConsistency(p164, net.Tables()); len(v) != 0 {
		t.Fatalf("post-optimize inconsistent: %v", v[0])
	}
}

// TestMeasureStretchStopsWhenNothingRoutes: two seeds that know only
// themselves route no pair, and MeasureStretch must give up after its
// draw budget and report no pairs instead of drawing forever.
func TestMeasureStretchStopsWhenNothingRoutes(t *testing.T) {
	net := New(Config{Params: p164, Latency: ConstantLatency(10 * time.Millisecond)})
	for _, ref := range RandomRefs(p164, 2, rand.New(rand.NewSource(5)), nil) {
		net.AddSeed(ref)
	}
	done := make(chan StretchStats, 1)
	go func() { done <- net.MeasureStretch(50, rand.New(rand.NewSource(1))) }()
	select {
	case st := <-done:
		if st != (StretchStats{}) {
			t.Errorf("MeasureStretch over unroutable pairs = %+v, want no pairs", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MeasureStretch still drawing after 10 s on a network where no pair routes")
	}
}
