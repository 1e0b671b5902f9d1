// The benchmarks EXPERIMENTS.md cites by name and cmd/paper does not
// already run as a golden-tested experiment: the design-choice ablations
// of "Additional measurements" (BenchmarkAblation*). Each attaches the
// quantity it reproduces as a custom metric (ReportMetric) next to the
// runtime cost; nothing records them, `go test -bench . -benchmem`
// prints them.
package hypercube

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

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

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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
