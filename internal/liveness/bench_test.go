package liveness

// Detection benchmarks for the gray-failure arc: they pin the virtual
// crash-to-declaration latency of the fixed and adaptive probers on a
// learned-fast link (the custom detect-ms metric) and the per-tick CPU
// cost of the estimator-backed probe path. Run with
// `go test -run '^$' -bench . ./internal/liveness`.

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/rtt"
	"hypercube/internal/table"
)

func benchRef(s string) table.Ref {
	return table.Ref{ID: id.MustParse(p44, s), Addr: "sim://" + s}
}

// benchDetection runs one crash scenario to declaration under a virtual
// clock and returns the detection latency: the peer answers at 50ms
// until it dies at 2s, and the prober (optionally estimator-backed)
// must declare it.
func benchDetection(b *testing.B, adaptive bool) time.Duration {
	cfg := Config{
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  3,
		ConfirmRounds: 2,
	}
	const diesAt = 2 * time.Second
	p := NewProber(cfg, benchRef("0000"))
	if adaptive {
		p.SetRTT(rtt.New())
	}
	dead := benchRef("1111")
	p.SetTargets([]table.Ref{dead})
	declared, at := runDelayed(p, 15*time.Second, func(now time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
		if pm, ok := env.Msg.(*msg.Ping); ok && env.To.ID == dead.ID && now < diesAt {
			return RespondPing(nil, dead, env.From, pm), 50 * time.Millisecond
		}
		return nil, -1
	})
	if len(declared) != 1 {
		b.Fatalf("dead peer not declared (adaptive=%v): %v", adaptive, declared)
	}
	return at[0] - diesAt
}

// BenchmarkDetectionFixed / BenchmarkDetectionAdaptive report the
// crash-to-declaration latency (virtual time, detect-ms) alongside the
// real CPU cost of running the detector loop to that point.
func BenchmarkDetectionFixed(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += benchDetection(b, false)
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "detect-ms")
}

func BenchmarkDetectionAdaptive(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += benchDetection(b, true)
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "detect-ms")
}

// BenchmarkProbeTick measures the per-tick cost of the probe scheduler
// over a large responsive target set, with and without the estimator on
// the hot path (budget computation, RTT sampling on every pong).
func BenchmarkProbeTick(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		b.Run(fmt.Sprintf("%s/targets=64", name), func(b *testing.B) {
			cfg := Config{
				ProbeInterval: time.Millisecond,
				ProbeTimeout:  10 * time.Millisecond,
				SuspectAfter:  3,
				ConfirmRounds: 2,
			}
			p := NewProber(cfg, benchRef("0000"))
			now := time.Duration(0)
			if adaptive {
				p.SetRTT(rtt.New())
			}
			// p44 is base 4 × 4 digits: encode 1..64 in base 4, zero-padded,
			// skipping self at "0000".
			targets := make([]table.Ref, 64)
			for i := range targets {
				s := strconv.FormatInt(int64(i+1), 4)
				targets[i] = benchRef(fmt.Sprintf("%04s", s))
			}
			p.SetTargets(targets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Millisecond
				out, _, _ := p.Tick(now)
				// Answer every ping immediately: the pong path (estimator
				// sampling under -adaptive) is part of the measured cost.
				for _, env := range out {
					if pm, ok := env.Msg.(*msg.Ping); ok {
						for _, r := range RespondPing(nil, table.Ref{ID: env.To.ID, Addr: env.To.Addr}, env.From, pm) {
							p.HandleMessage(r, now)
						}
					}
				}
			}
		})
	}
}
