// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Liu & Lam, ICDCS 2003, §5):
//
//	BenchmarkFigure15a          — the analytic curves of Figure 15(a)
//	BenchmarkFigure15b/...      — the simulated CDFs of Figure 15(b)
//	BenchmarkJoinTable/...      — the §5.2 in-text averages vs bounds
//	BenchmarkTheorem3/...       — the CpRst+JoinWait <= d+1 bound
//	BenchmarkConsistency/...    — Theorems 1 & 2 under concurrent waves
//	BenchmarkSingleJoin/...     — Theorem 4's single-join setting
//	BenchmarkMessageSize/...    — the §6.2 message-size ablation
//	BenchmarkBaseline/...       — the §1 multicast-join comparison
//	BenchmarkAblation*          — design-choice ablations from DESIGN.md
//
// Domain results are attached as custom benchmark metrics (ReportMetric),
// so `go test -bench . -benchmem` prints both runtime cost and the
// reproduced quantities (mean JoinNotiMsg per join, theoretical bounds,
// violation counts). Figure15b and JoinTable run the paper-scale setups
// (n up to 7192, m=1000, 8320-router topology); everything else uses
// smaller instances sized for stable measurement.
package hypercube

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/analysis"
	"hypercube/internal/baseline"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
	"hypercube/internal/topology"
	"hypercube/internal/workload"
)

// BenchmarkFigure15a evaluates the four Theorem-5 curves at the paper's
// ten n samples (Figure 15(a)).
func BenchmarkFigure15a(b *testing.B) {
	ns := analysis.PaperFigure15aN()
	curves := analysis.PaperFigure15aCurves()
	var last float64
	for i := 0; i < b.N; i++ {
		series := analysis.Figure15a(curves, ns)
		last = series[1].Points[len(ns)-1].Y
	}
	// m=1000, b=16, d=40 at n=100000 — the top-right point of the figure.
	b.ReportMetric(last, "bound@n=100k")
	b.ReportMetric(analysis.UpperBoundJoinNoti(16, 40, 10_000, 1000), "bound@n=10k")
}

// figure15bSetups are the paper's four simulation configurations.
var figure15bSetups = []struct {
	n, d int
}{
	{3096, 8}, {3096, 40}, {7192, 8}, {7192, 40},
}

// BenchmarkFigure15b runs each Figure 15(b) setup at paper scale: 8320-
// router transit-stub topology, m=1000 concurrent joins at t=0. Metrics:
// the mean JoinNotiMsg per join (the paper reports 6.117 / 6.051 / 5.026
// / 5.399), the Theorem-5 bound, and the CDF at x=10.
func BenchmarkFigure15b(b *testing.B) {
	for _, su := range figure15bSetups {
		su := su
		b.Run(fmt.Sprintf("n=%d/d=%d", su.n, su.d), func(b *testing.B) {
			var mean, cdf10 float64
			for i := 0; i < b.N; i++ {
				topo, err := topology.Generate(topology.Default8320(1))
				if err != nil {
					b.Fatal(err)
				}
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params:   id.Params{B: 16, D: su.d},
					N:        su.n,
					M:        1000,
					Seed:     1,
					Topology: topo,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Consistent() || !res.AllSNodes {
					b.Fatalf("wave violated Theorems 1/2: %d violations", len(res.Violations))
				}
				mean = res.MeanJoinNoti()
				at10 := 0
				for _, v := range res.JoinNoti {
					if v <= 10 {
						at10++
					}
				}
				cdf10 = float64(at10) / float64(len(res.JoinNoti))
			}
			b.ReportMetric(mean, "meanJoinNoti")
			b.ReportMetric(analysis.UpperBoundJoinNoti(16, su.d, su.n, 1000), "thm5bound")
			b.ReportMetric(cdf10, "CDF@10")
		})
	}
}

// BenchmarkJoinTable regenerates the §5.2 in-text comparison rows
// (simulated average vs Theorem-5 bound vs Theorem-4 expectation).
func BenchmarkJoinTable(b *testing.B) {
	for _, su := range figure15bSetups {
		su := su
		b.Run(fmt.Sprintf("n=%d/d=%d", su.n, su.d), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: id.Params{B: 16, D: su.d},
					N:      su.n,
					M:      1000,
					Seed:   2,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanJoinNoti()
			}
			b.ReportMetric(mean, "avgJoinNoti")
			b.ReportMetric(analysis.UpperBoundJoinNoti(16, su.d, su.n, 1000), "thm5bound")
			b.ReportMetric(analysis.ExpectedJoinNoti(16, su.d, su.n), "thm4E(J)")
		})
	}
}

// BenchmarkTheorem3 measures the worst observed CpRst+JoinWait count per
// join against the d+1 bound.
func BenchmarkTheorem3(b *testing.B) {
	for _, d := range []int{4, 8, 40} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			worst := 0
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: id.Params{B: 16, D: d}, N: 500, M: 200, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, rec := range res.Records {
					if s := rec.CpRstSent + rec.JoinWaitSent; s > worst {
						worst = s
					}
				}
			}
			if worst > analysis.Theorem3Bound(d) {
				b.Fatalf("Theorem 3 violated: %d > %d", worst, analysis.Theorem3Bound(d))
			}
			b.ReportMetric(float64(worst), "maxCpRst+JoinWait")
			b.ReportMetric(float64(analysis.Theorem3Bound(d)), "thm3bound")
		})
	}
}

// BenchmarkConsistency measures a full concurrent wave plus the global
// Definition-3.8 check (Theorems 1 and 2 as an executable assertion).
func BenchmarkConsistency(b *testing.B) {
	for _, p := range []id.Params{{B: 4, D: 6}, {B: 16, D: 8}} {
		p := p
		b.Run(fmt.Sprintf("b=%d/d=%d", p.B, p.D), func(b *testing.B) {
			violations := 0
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: p, N: 400, M: 200, Seed: int64(i) * 31,
				})
				if err != nil {
					b.Fatal(err)
				}
				violations += len(res.Violations)
				if !res.AllSNodes {
					b.Fatal("Theorem 2 violated")
				}
			}
			if violations != 0 {
				b.Fatalf("Theorem 1 violated %d times", violations)
			}
			b.ReportMetric(0, "violations")
		})
	}
}

// BenchmarkSingleJoin measures one node joining an n-node consistent
// network — Theorem 4's setting — and reports the measured JoinNotiMsg
// count against E(J).
func BenchmarkSingleJoin(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: id.Params{B: 16, D: 8}, N: n, M: 1, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				total += res.JoinNoti[0]
			}
			b.ReportMetric(float64(total)/float64(b.N), "JoinNoti/join")
			b.ReportMetric(analysis.ExpectedJoinNoti(16, 8, n), "thm4E(J)")
		})
	}
}

// BenchmarkMessageSize is the §6.2 ablation: bytes sent by joiners with
// and without the two message-size reductions.
func BenchmarkMessageSize(b *testing.B) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"reduced", core.Options{ReduceLevels: true, BitVector: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			bytesPerJoin := 0.0
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: id.Params{B: 16, D: 8}, N: 500, M: 200, Seed: 3, Opts: v.opts,
				})
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, rec := range res.Records {
					total += rec.BytesSent
				}
				bytesPerJoin = float64(total) / float64(len(res.Records))
			}
			b.ReportMetric(bytesPerJoin, "bytes/join")
		})
	}
}

// BenchmarkBaseline compares the paper's protocol with the multicast join
// of §1's related work on identical workloads: message totals, peak join
// state parked on established nodes, and consistency violations.
func BenchmarkBaseline(b *testing.B) {
	p := id.Params{B: 4, D: 4}
	b.Run("liu-lam", func(b *testing.B) {
		var events uint64
		violations := 0
		for i := 0; i < b.N; i++ {
			res, err := overlay.RunWave(overlay.WaveConfig{Params: p, N: 120, M: 80, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			events = res.Events
			violations += len(res.Violations)
		}
		b.ReportMetric(float64(events), "messages")
		b.ReportMetric(float64(violations), "violations")
		b.ReportMetric(0, "peakExistingNodeState")
	})
	b.Run("multicast", func(b *testing.B) {
		var messages, pending, violations int
		for i := 0; i < b.N; i++ {
			res, err := baseline.RunWave(baseline.Config{Params: p, N: 120, M: 80, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			messages = res.TotalMessages
			pending = res.PeakPendingState
			violations += res.Violations
		}
		b.ReportMetric(float64(messages), "messages")
		b.ReportMetric(float64(violations), "violations")
		b.ReportMetric(float64(pending), "peakExistingNodeState")
	})
}

// BenchmarkAblationStagger contrasts the paper's all-at-t=0 wave with
// staggered join starts: staggering reduces contention (fewer JoinWait
// retries) at the cost of a longer wall-clock join phase.
func BenchmarkAblationStagger(b *testing.B) {
	for _, stagger := range []time.Duration{0, 5 * time.Second} {
		stagger := stagger
		b.Run(fmt.Sprintf("stagger=%v", stagger), func(b *testing.B) {
			var mean float64
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: id.Params{B: 16, D: 8}, N: 500, M: 200, Seed: 5, Stagger: stagger,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanJoinNoti()
				virtual = res.VirtualDuration
			}
			b.ReportMetric(mean, "meanJoinNoti")
			b.ReportMetric(virtual.Seconds(), "virtualSeconds")
		})
	}
}

// BenchmarkAblationBase sweeps the digit base b at fixed ID-space size
// (~2^16), showing the table-size/hop-count trade-off of the scheme.
func BenchmarkAblationBase(b *testing.B) {
	for _, p := range []id.Params{{B: 2, D: 16}, {B: 4, D: 8}, {B: 16, D: 4}} {
		p := p
		b.Run(fmt.Sprintf("b=%d/d=%d", p.B, p.D), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := overlay.RunWave(overlay.WaveConfig{
					Params: p, N: 400, M: 150, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Consistent() {
					b.Fatal("inconsistent")
				}
				mean = res.MeanJoinNoti()
			}
			b.ReportMetric(mean, "meanJoinNoti")
		})
	}
}

// BenchmarkDirectBuild measures the global-knowledge construction of the
// initial consistent network (the experiment fixture) — the scalability
// knob for large waves.
func BenchmarkDirectBuild(b *testing.B) {
	p := id.Params{B: 16, D: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := overlay.New(overlay.Config{Params: p})
		rng := newRand(int64(i))
		net.BuildDirect(overlay.RandomRefs(p, 2000, rng, nil), rng)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BenchmarkLeave measures a concurrent graceful-leave wave (the §7 leave
// extension): 50 of 500 nodes depart at once.
func BenchmarkLeave(b *testing.B) {
	p := id.Params{B: 16, D: 8}
	var perLeave float64
	for i := 0; i < b.N; i++ {
		rng := newRand(int64(i))
		net := overlay.New(overlay.Config{Params: p})
		refs := overlay.RandomRefs(p, 500, rng, nil)
		net.BuildDirect(refs, rng)
		before := net.Delivered()
		for j := 0; j < 50; j++ {
			if err := net.ScheduleLeave(refs[j].ID, 0); err != nil {
				b.Fatal(err)
			}
		}
		net.Run()
		if got := len(net.FinalizeLeaves()); got != 50 {
			b.Fatalf("only %d leaves completed", got)
		}
		if v := net.CheckConsistency(); len(v) != 0 {
			b.Fatalf("inconsistent after leaves: %v", v[0])
		}
		perLeave = float64(net.Delivered()-before) / 50
	}
	b.ReportMetric(perLeave, "msgs/leave")
}

// BenchmarkFailureRecovery measures crash repair: one node of 500 fails,
// survivors repair via local scans, routed queries, and orphan rejoins.
func BenchmarkFailureRecovery(b *testing.B) {
	p := id.Params{B: 16, D: 8}
	var perCrash float64
	unrepaired := 0
	for i := 0; i < b.N; i++ {
		rng := newRand(int64(i) * 17)
		net := overlay.New(overlay.Config{Params: p})
		refs := overlay.RandomRefs(p, 500, rng, nil)
		net.BuildDirect(refs, rng)
		before := net.Delivered()
		dead := refs[rng.Intn(len(refs))].ID
		if err := net.InjectFailure(dead); err != nil {
			b.Fatal(err)
		}
		st := net.RecoverFailure(dead, rng, 0)
		unrepaired += st.Unrepaired
		if v := net.CheckConsistency(); len(v) != 0 {
			b.Fatalf("inconsistent after recovery: %v", v[0])
		}
		perCrash = float64(net.Delivered() - before)
	}
	if unrepaired != 0 {
		b.Fatalf("%d entries unrepaired", unrepaired)
	}
	b.ReportMetric(perCrash, "msgs/crash")
}

// BenchmarkOptimization measures the §7 table-optimization extension and
// reports the route-stretch improvement on a transit-stub topology.
func BenchmarkOptimization(b *testing.B) {
	p := id.Params{B: 16, D: 6}
	var beforeMean, afterMean float64
	for i := 0; i < b.N; i++ {
		topo, err := topology.Generate(topology.Small(int64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		rng := newRand(int64(i) * 3)
		tl := overlay.NewTopologyLatency(topo)
		net := overlay.New(overlay.Config{Params: p, Latency: tl.Func()})
		refs := overlay.RandomRefs(p, 300, rng, nil)
		hosts := topo.AttachHosts(len(refs), rng)
		for j, ref := range refs {
			tl.Bind(ref.ID, hosts[j])
		}
		net.BuildDirect(refs, rng)
		beforeMean = net.MeasureStretch(300, newRand(7)).Mean
		net.OptimizeTables(2)
		afterMean = net.MeasureStretch(300, newRand(7)).Mean
	}
	b.ReportMetric(beforeMean, "stretchBefore")
	b.ReportMetric(afterMean, "stretchAfter")
}

// BenchmarkAblationSequentialVsConcurrent compares the same m joins run
// one-at-a-time against all-at-t=0 (the paper's Lemma 5.2 vs Lemma 5.5
// settings): concurrency costs extra JoinWait redirects but the totals
// stay in the same regime.
func BenchmarkAblationSequentialVsConcurrent(b *testing.B) {
	p := id.Params{B: 16, D: 8}
	run := func(b *testing.B, stagger time.Duration, sequential bool) (joinWait float64, joinNoti float64) {
		rng := newRand(9)
		net := overlay.New(overlay.Config{Params: p})
		taken := make(map[id.ID]bool)
		existing := overlay.RandomRefs(p, 400, rng, taken)
		net.BuildDirect(existing, rng)
		joiners := overlay.RandomRefs(p, 150, rng, taken)
		for _, j := range joiners {
			g0 := existing[rng.Intn(len(existing))]
			net.ScheduleJoin(j, g0, net.Engine().Now())
			if sequential {
				net.Run()
			}
		}
		net.Run()
		if v := net.CheckConsistency(); len(v) != 0 {
			b.Fatalf("inconsistent: %v", v[0])
		}
		totalWait, totalNoti := 0, 0
		for _, rec := range net.Joins() {
			totalWait += rec.JoinWaitSent
			totalNoti += rec.JoinNotiSent
		}
		return float64(totalWait) / float64(len(joiners)), float64(totalNoti) / float64(len(joiners))
	}
	b.Run("sequential", func(b *testing.B) {
		var jw, jn float64
		for i := 0; i < b.N; i++ {
			jw, jn = run(b, 0, true)
		}
		b.ReportMetric(jw, "JoinWait/join")
		b.ReportMetric(jn, "JoinNoti/join")
	})
	b.Run("concurrent", func(b *testing.B) {
		var jw, jn float64
		for i := 0; i < b.N; i++ {
			jw, jn = run(b, 0, false)
		}
		b.ReportMetric(jw, "JoinWait/join")
		b.ReportMetric(jn, "JoinNoti/join")
	})
}

// BenchmarkAblationDependence contrasts independent joins (pairwise
// disjoint notification sets) with maximally dependent ones (all joiners
// sharing a deep suffix — the §3.3 conflict scenario). Dependent joins
// contend for the same entries, visible as extra JoinWaitMsg redirects.
func BenchmarkAblationDependence(b *testing.B) {
	p := id.Params{B: 16, D: 8}
	const nExisting, nJoin = 300, 32
	build := func(rng *rand.Rand, dependent bool, taken map[id.ID]bool) []table.Ref {
		joiners := make([]table.Ref, 0, nJoin)
		if dependent {
			// All joiners share a 3-digit suffix absent from V: one C-set
			// tree, maximal contention.
			base := id.Random(p, rng)
			for len(joiners) < nJoin {
				x := id.Random(p, rng)
				merged := x
				for i := 0; i < 3; i++ {
					merged = merged.WithDigit(i, base.Digit(i))
				}
				if taken[merged] {
					continue
				}
				taken[merged] = true
				joiners = append(joiners, table.Ref{ID: merged, Addr: "sim://" + merged.String()})
			}
			return joiners
		}
		// Independent: distinct rightmost digits, one joiner per digit
		// bucket (noti-sets V_j are pairwise disjoint... near enough for
		// b=16 and 32 joiners: two per bucket at most).
		return overlay.RandomRefs(p, nJoin, rng, taken)
	}
	for _, dep := range []bool{false, true} {
		dep := dep
		name := "independent"
		if dep {
			name = "dependent-same-suffix"
		}
		b.Run(name, func(b *testing.B) {
			var jw, jn float64
			for i := 0; i < b.N; i++ {
				rng := newRand(31)
				taken := make(map[id.ID]bool)
				net := overlay.New(overlay.Config{Params: p})
				existing := overlay.RandomRefs(p, nExisting, rng, taken)
				net.BuildDirect(existing, rng)
				joiners := build(rng, dep, taken)
				for _, j := range joiners {
					net.ScheduleJoin(j, existing[rng.Intn(len(existing))], 0)
				}
				net.Run()
				if v := net.CheckConsistency(); len(v) != 0 {
					b.Fatalf("inconsistent: %v", v[0])
				}
				totalWait, totalNoti := 0, 0
				for _, rec := range net.Joins() {
					totalWait += rec.JoinWaitSent
					totalNoti += rec.JoinNotiSent
				}
				jw = float64(totalWait) / float64(len(joiners))
				jn = float64(totalNoti) / float64(len(joiners))
			}
			b.ReportMetric(jw, "JoinWait/join")
			b.ReportMetric(jn, "JoinNoti/join")
		})
	}
}

// BenchmarkWorkload measures sustained churn throughput: a 30-operation
// random script over a 200-node network.
func BenchmarkWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runner, err := workload.NewRunner(id.Params{B: 16, D: 6}, 200, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		script := workload.RandomScript(newRand(int64(i)), 30, workload.DefaultMix())
		if _, err := runner.RunScript(script); err != nil {
			b.Fatal(err)
		}
	}
}
