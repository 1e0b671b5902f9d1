package main

import (
	"math/rand"
	"time"

	"hypercube/internal/analysis"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/netcheck"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

// paperParams is the ID space of the paper's §5.2 simulations.
var paperParams = id.Params{B: 16, D: 8}

// simJoin is the paper's headline experiment (§5.2): m nodes join a
// consistent network of n at t=0 through uniformly random gateways, on
// the bare protocol. One op is one joiner reaching in_system; its
// latency is virtual.
type simJoin struct {
	n, m       int
	probeJoins int
	probeIters int

	last *overlay.Network // artefacts of the last round, for the probes
}

func newSimJoin(s scale) workload {
	if s == toy {
		return &simJoin{n: 64, m: 16, probeJoins: 8, probeIters: 20}
	}
	return &simJoin{n: 7192, m: 1000, probeJoins: 200, probeIters: 1000}
}

func (w *simJoin) round(seed int64, r *recorder) {
	p := paperParams
	var net *overlay.Network
	var existing, joiners []table.Ref
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	taken := make(map[id.ID]bool, w.n+w.m)
	existing = overlay.RandomRefs(p, w.n, rng, taken)
	joiners = overlay.RandomRefs(p, w.m, rng, taken)
	net = overlay.New(overlay.Config{
		Params:  p,
		Latency: overlay.HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, seed),
	})
	build := r.call("overlay.BuildDirect", func() { net.BuildDirect(existing, rng) })
	r.setup(time.Since(t0))
	r.layer("overlay.build_direct_s", build.Seconds())

	machines := make([]*core.Machine, 0, w.m)
	var events uint64
	r.resume()
	r.call("overlay.ScheduleJoin", func() {
		for _, ref := range joiners {
			machines = append(machines, net.ScheduleJoin(ref, existing[rng.Intn(len(existing))], 0))
		}
	})
	runWall := r.call("overlay.Run", func() { events = net.Run() })
	r.pause()

	// Correctness: Theorems 1-3 and Theorem 5's bound on JoinNotiMsg.
	failed := 0
	for _, m := range machines {
		if !m.IsSNode() {
			failed++
		}
	}
	if failed > 0 {
		r.failf("seed %d: %d of %d joiners did not reach in_system (Theorem 2)", seed, failed, w.m)
	}
	var violations []netcheck.Violation
	verify := r.call("netcheck.CheckConsistency", func() { violations = net.CheckConsistency() })
	if len(violations) > 0 {
		r.failf("seed %d: %d consistency violations after the wave (Theorem 1), e.g. %v", seed, len(violations), violations[0])
	}
	recs := net.Joins()
	joinNoti, maxCopyWait := 0, 0
	for _, rec := range recs {
		r.latency(rec.Ended - rec.Started)
		joinNoti += rec.JoinNotiSent
		maxCopyWait = max(maxCopyWait, rec.CpRstSent+rec.JoinWaitSent)
	}
	traffic := net.AggregateTraffic()
	r.commit(len(recs), failed, traffic.TotalSent(), traffic.BytesSent)
	perJoin := float64(joinNoti) / float64(w.m)
	if w.n == 7192 && w.m == 1000 {
		if bound := analysis.UpperBoundJoinNoti(p.B, p.D, w.n, w.m); perJoin > bound {
			r.failf("seed %d: %.3f JoinNotiMsg per join exceeds Theorem 5's bound %.3f", seed, perJoin, bound)
		}
	}
	if maxCopyWait > analysis.Theorem3Bound(p.D) {
		r.failf("seed %d: a joiner sent %d CpRstMsg+JoinWaitMsg, above Theorem 3's bound %d", seed, maxCopyWait, analysis.Theorem3Bound(p.D))
	}

	ops := float64(w.m)
	r.layer("msg.big_per_op", float64(traffic.BigSent())/ops)
	r.layer("msg.small_per_op", float64(traffic.TotalSent()-traffic.BigSent())/ops)
	r.layer("msg.joinnoti_per_join", perJoin)
	r.layer("core.deliver_per_join", float64(net.Delivered())/ops)
	r.layer("core.max_cprst_joinwait", float64(maxCopyWait))
	r.layer("sim.events_per_op", float64(events)/ops)
	r.layer("sim.events_per_s", float64(events)/runWall.Seconds())
	r.layer("overlay.run_ms_p50", float64(runWall)/1e6)
	r.layer("overlay.virtual_s_per_wall_s", net.Engine().Now().Seconds()/runWall.Seconds())
	r.layer("overlay.dropped_msgs", float64(net.Dropped()))
	r.layer("netcheck.verify_s", verify.Seconds())
	w.last = net
}

func (w *simJoin) probes(r *recorder) {
	probeLayers(r, paperParams, w.last.Tables(), r.cfg.seed, w.probeIters)
	probeDeliver(r, w.last, core.Options{}, r.cfg.seed, w.probeJoins)
}
