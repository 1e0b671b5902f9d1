package nemesis

import (
	"time"

	"hypercube/internal/id"
)

// Generator bounds. Each fault is kept inside the envelope the protocol
// is *specified* to survive, so a finding on a generated schedule is a
// bug, not an overdriven scenario. The detector bounds are read off
// node.Shipped, the profile the executor runs, and
// TestEnvelopeInsideShippedProfile holds them to it:
//
//   - partitions cut a 40–50% minority: large enough that both sides'
//     detectors see a distressed fraction above the profile's
//     PartitionThreshold (0.3) and freeze declarations; a smaller
//     minority would be declared dead by design. Each split lasts at
//     most 5s, and the heal after it at least genMinHeal (2 × the
//     profile's 1s ProbeTimeout): a heal shorter than a probe
//     period gives a timeout-based detector no evidence that contact
//     resumed, so a chain of partitions counts as one long partition —
//     beyond any bound on a single split — unless the heal between them
//     lets every distressed target answer a probe.
//   - cumulative crashes stay below ~15% of the current membership, well
//     under the partition threshold, so mass death never freezes the
//     detectors permanently.
//   - clock pauses stay under 3s, below the profile's declaration
//     window: after a target's first miss (which an RTT estimator may
//     bring early) it takes SuspectAfter − 1 more misses and
//     ConfirmRounds confirmation rounds, each at least ProbeTimeout,
//     so (4 − 1 + 4) × 1s = 7s (liveness.Tick; pinned by its
//     TestAdaptiveNeverShrinksWindow). Any declaration of a paused node
//     is therefore a genuine false positive.
//   - loss bursts stay under 12%: the retransmission layer is specified
//     to ride that out without dead-lettering protocol traffic.
//   - at most ~8% of members turn byzantine, matching the guard layer's
//     design envelope, and they are marked exactly once per run.
const (
	genMaxCrashPct  = 15
	genMaxLossRate  = 0.12
	genMaxPauseDur  = 2500 * time.Millisecond
	genMaxByzFrac   = 0.08
	genPartMinFrac  = 0.40
	genPartMaxFrac  = 0.50
	genMinHeal      = 2 * time.Second
	genMinNodes     = 8
	genDefaultSteps = 8
)

// Generate derives a fault schedule from (seed, nodes, steps) alone.
// The same arguments always yield the identical schedule. Steps ≤ 0
// selects the default length. The generator tracks coarse network state
// (membership count, crash budget, whether byzantine members exist) so
// every emitted schedule stays inside the survivable envelope above;
// Validate-passing schedules outside that envelope can still be written
// by hand.
func Generate(seed uint64, p id.Params, nodes, steps int) Schedule {
	if nodes < genMinNodes {
		nodes = genMinNodes
	}
	if steps <= 0 {
		steps = genDefaultSteps
	}
	s := Schedule{Seed: seed, B: p.B, D: p.D, Nodes: nodes, Steps: make([]Action, 0, steps)}

	members := nodes
	crashed := 0
	byzMarked := false
	slowMarked := false
	sinceQuiesce := 0

	for i := 0; i < steps; i++ {
		r := newRNG(seed, uint64(i))

		// Candidate ops this state admits, weighted by repetition.
		var ops []Op
		add := func(op Op, weight int) {
			for k := 0; k < weight; k++ {
				ops = append(ops, op)
			}
		}
		add(OpJoinWave, 3)
		add(OpCrash, 2)
		add(OpPartition, 2)
		add(OpLoss, 2)
		add(OpPause, 2)
		add(OpRestart, 2)
		if !byzMarked {
			// Graceful leaves need acknowledgment round-trips through
			// reverse neighbors; a hostile holder can corrupt those, so
			// leaves are only generated while every member is honest.
			add(OpLeave, 2)
			add(OpByzantine, 1)
		}
		if !slowMarked {
			add(OpSlow, 1)
		}
		if sinceQuiesce >= 2 {
			add(OpQuiesce, 3)
		}

		a := Action{Op: ops[r.Intn(len(ops))]}
		a.Gap = r.durBetween(500*time.Millisecond, 2*time.Second)
		switch a.Op {
		case OpJoinWave:
			a.Count = r.between(2, 5)
			members += a.Count
		case OpLeave:
			a.Count = r.between(1, 2)
			if members-a.Count < nodes/2 {
				a = Action{Op: OpQuiesce, Gap: a.Gap}
				break
			}
			members -= a.Count
		case OpCrash:
			a.Count = r.between(1, 2)
			if (crashed+a.Count)*100 > members*genMaxCrashPct || members-a.Count < nodes/2 {
				// Crash budget spent: settle instead, which resets nothing
				// but still probes the invariants.
				a = Action{Op: OpQuiesce, Gap: a.Gap}
				break
			}
			crashed += a.Count
			members -= a.Count
		case OpPartition:
			a.Frac = genPartMinFrac + r.float()*(genPartMaxFrac-genPartMinFrac)
			a.Dur = r.durBetween(2*time.Second, 5*time.Second)
			// Adjusted after the draw, so the RNG stream is unchanged.
			a.Gap = max(a.Gap, genMinHeal)
		case OpSlow:
			a.Count = r.between(1, 2)
			slowMarked = true
		case OpByzantine:
			a.Frac = 0.02 + r.float()*(genMaxByzFrac-0.02)
			byzMarked = true
		case OpLoss:
			a.Rate = 0.05 + r.float()*(genMaxLossRate-0.05)
			a.Dur = r.durBetween(2*time.Second, 4*time.Second)
		case OpPause:
			a.Count = r.between(1, 2)
			a.Dur = r.durBetween(time.Second, genMaxPauseDur)
		case OpRestart:
			a.Count = r.between(1, 2)
			a.Corrupt = r.Intn(4) == 0
		}
		if a.Op == OpQuiesce {
			sinceQuiesce = 0
		} else {
			sinceQuiesce++
		}
		s.Steps = append(s.Steps, a)
	}
	return s
}
