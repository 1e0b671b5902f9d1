package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/nemesis/oracle"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/sampling"
)

// daemonOptions is the protocol configuration cmd/hypercubed ships by
// default: the guard's scorer on and a 2 s exchange timeout.
func daemonOptions() core.Options {
	return core.Options{
		Guard:    &guard.Policy{},
		Timeouts: core.Timeouts{RetryAfter: 2 * time.Second},
	}
}

// simCrash runs the whole stack the daemon ships by default (guard,
// failure detector, anti-entropy, peer sampling) in the simulator: nodes
// crash unannounced, one at a time, and the survivors must detect each
// crash and repair their tables. One op is one crash detected and
// repaired; its latency is virtual. The join path is idle here, and the
// layers sim_join_paper bypasses do most of the work.
type simCrash struct {
	n          int
	crashes    int // per round
	warmup     time.Duration
	probeIters int

	last *overlay.Network
}

func newSimCrash(s scale) workload {
	if s == toy {
		return &simCrash{n: 24, crashes: 1, warmup: time.Second, probeIters: 20}
	}
	return &simCrash{n: 128, crashes: 6, warmup: 10 * time.Second, probeIters: 1000}
}

// declSink forwards events to the watcher of the current crash, so that
// each crash's detection time reads separately.
type declSink struct{ watch *oracle.DeclWatch }

func (s *declSink) Emit(e obs.Event) { s.watch.Emit(e) }

const (
	crashStep = 250 * time.Millisecond // virtual time between consistency checks
	crashCap  = 90 * time.Second       // virtual time after which a repair counts as failed
)

func (w *simCrash) round(seed int64, r *recorder) {
	p := paperParams
	rng := rand.New(rand.NewSource(seed))
	sink := &declSink{watch: oracle.NewDeclWatch()}
	t0 := time.Now()
	members := overlay.RandomRefs(p, w.n, rng, nil)
	net := overlay.New(overlay.Config{
		Params:      p,
		Opts:        daemonOptions(),
		Latency:     overlay.HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, seed),
		Liveness:    &liveness.Config{},
		AntiEntropy: &antientropy.Config{},
		Sampling:    &sampling.Config{Seed: seed},
		Sink:        sink,
	})
	build := r.call("overlay.BuildDirect", func() { net.BuildDirect(members, rng) })
	r.call("overlay.RunFor", func() { net.RunFor(w.warmup) })
	r.setup(time.Since(t0))
	r.layer("overlay.build_direct_s", build.Seconds())
	if v := net.CheckConsistency(); len(v) > 0 {
		r.failf("seed %d: %d violations after the warm-up, before any crash", seed, len(v))
	}

	var dead []id.ID
	falseDecl := sink.watch.FalsePositives()
	for c := 0; c < w.crashes && (c == 0 || !r.expired()); c++ {
		victim := members[rng.Intn(len(members))].ID
		for slices.Contains(dead, victim) {
			victim = members[rng.Intn(len(members))].ID
		}
		before := net.AggregateTraffic()
		live0, anti0, samp0 := net.LivenessStats(), net.AntiEntropyStats(), net.SamplingStats()
		crashedAt := net.Engine().Now()
		// Late declarations of earlier victims are genuine, not false.
		sink.watch = oracle.NewDeclWatch()
		sink.watch.MarkDead(dead...)
		sink.watch.MarkDeadAt(crashedAt, victim)
		dead = append(dead, victim)
		if err := net.InjectFailure(victim); err != nil {
			r.abort(fmt.Errorf("seed %d: InjectFailure(%v): %w", seed, victim, err))
			return
		}
		var events uint64
		var wall, verify time.Duration
		repaired := false
		for net.Engine().Now()-crashedAt < crashCap {
			r.resume()
			wall += r.call("overlay.RunFor", func() { events += net.RunFor(crashStep) })
			r.pause()
			var clean bool
			verify += r.call("netcheck.CheckConsistency", func() { clean = len(net.CheckConsistency()) == 0 })
			if clean {
				repaired = true
				break
			}
		}
		virtual := net.Engine().Now() - crashedAt
		after := net.AggregateTraffic()
		msgs, wire := after.TotalSent()-before.TotalSent(), after.BytesSent-before.BytesSent
		falseDecl += sink.watch.FalsePositives()
		if !repaired {
			r.failf("seed %d: crash of %v not repaired within %v of virtual time", seed, victim, crashCap)
			r.commit(0, 1, msgs, wire)
			continue
		}
		r.latency(virtual)
		r.commit(1, 0, msgs, wire)

		nodeSeconds := float64(net.Size()) * virtual.Seconds()
		live, anti, samp := net.LivenessStats(), net.AntiEntropyStats(), net.SamplingStats()
		r.layer("liveness.probes_per_node_s", float64(live.ProbesSent+live.IndirectSent-live0.ProbesSent-live0.IndirectSent)/nodeSeconds)
		r.layer("liveness.detect_virtual_ms_p50", float64(sink.watch.MeanDetection())/1e6)
		r.layer("liveness.suspects", float64(live.Suspects-live0.Suspects))
		r.layer("antientropy.rounds_per_node_s", float64(anti.Rounds-anti0.Rounds)/nodeSeconds)
		r.layer("antientropy.pulled", float64(anti.Pulled-anti0.Pulled))
		r.layer("sampling.rounds_per_node_s", float64(samp.Rounds-samp0.Rounds)/nodeSeconds)
		r.layer("msg.big_per_op", float64(after.BigSent()-before.BigSent()))
		r.layer("msg.small_per_op", float64(msgs-(after.BigSent()-before.BigSent())))
		r.layer("sim.events_per_op", float64(events))
		r.layer("sim.events_per_s", float64(events)/wall.Seconds())
		r.layer("overlay.run_ms_p50", float64(wall)/1e6)
		r.layer("overlay.virtual_s_per_wall_s", virtual.Seconds()/wall.Seconds())
		r.layer("netcheck.verify_s", verify.Seconds())
	}
	if falseDecl > 0 {
		r.failf("seed %d: %d live nodes were declared failed", seed, falseDecl)
	}
	r.layer("liveness.false_declarations", float64(falseDecl))
	r.layer("guard.rejected_per_op", float64(net.GuardStats().Rejected)/float64(len(dead)))
	r.layer("overlay.dropped_msgs", float64(net.Dropped()))
	w.last = net
}

func (w *simCrash) probes(r *recorder) {
	probeLayers(r, paperParams, w.last.Tables(), r.cfg.seed, w.probeIters)
}
