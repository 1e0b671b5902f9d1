package overlay

import (
	"fmt"
	"math/rand"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/table"
)

// ScheduleLeave schedules node x's graceful departure (the §7 leave
// extension) at virtual time at. After Run, call FinalizeLeaves to
// unregister nodes that completed their departure. A node no longer in
// system when the time arrives (it crashed or already left) is skipped.
func (n *Network) ScheduleLeave(x id.ID, at time.Duration) error {
	nd, ok := n.nodes[x]
	if !ok {
		return fmt.Errorf("overlay: leave of unknown node %v", x)
	}
	n.engine.ScheduleAt(at, func() {
		nd.Advance(n.engine.Now())
		out, err := nd.Machine().StartLeave()
		if err != nil {
			return
		}
		n.transmit(out)
	})
	return nil
}

// FinalizeLeaves unregisters every machine that reached StatusLeft and
// returns their IDs. Late in-flight messages to them are dropped.
func (n *Network) FinalizeLeaves() []id.ID {
	var gone []id.ID
	for x, nd := range n.nodes {
		if nd.Machine().Status() == core.StatusLeft {
			gone = append(gone, x)
		}
	}
	for _, x := range gone {
		delete(n.nodes, x)
		n.removed[x] = true
	}
	n.sorted = nil
	return gone
}

// InjectFailure removes node x abruptly: no goodbye, its in-flight and
// future messages are dropped. Use RecoverFailure afterwards to repair
// the survivors' tables.
func (n *Network) InjectFailure(x id.ID) error {
	if _, ok := n.nodes[x]; !ok {
		return fmt.Errorf("overlay: failure of unknown node %v", x)
	}
	delete(n.nodes, x)
	n.removed[x] = true
	n.sorted = nil
	return nil
}

// RecoveryStats summarizes a RecoverFailure run.
type RecoveryStats struct {
	// Holders is the number of surviving nodes that stored the dead node.
	Holders int
	// LocalRepairs counts entries refilled from the holder's own table.
	LocalRepairs int
	// RoutedRepairs counts entries refilled through Find queries.
	RoutedRepairs int
	// Rejoined counts orphaned holders that re-ran the join protocol.
	Rejoined int
	// Emptied counts entries whose suffix provably died with the node.
	Emptied int
	// Rounds is the number of query rounds run.
	Rounds int
	// Unrepaired counts entries still broken at the end (0 on success).
	Unrepaired int
}

// RecoverFailure repairs all surviving tables after the crash of dead.
// It is the single-crash form of RecoverFailures.
func (n *Network) RecoverFailure(dead id.ID, rng *rand.Rand, maxRounds int) RecoveryStats {
	return n.RecoverFailures([]id.ID{dead}, rng, maxRounds)
}

// RecoverFailures is the offline/batch repair path: given the set of
// crashed nodes (named by an oracle, e.g. a test harness), every
// surviving holder first repairs locally (DropFailed), then unresolved
// entries are refilled through the machines' own repair jobs —
// KickRepairs, the same trigger code the autonomous failure-detection
// path runs from Machine.Tick — forced in rounds to quiescence.
//
// The autonomous path (Config.Liveness plus core.Options.Timeouts) makes
// this oracle unnecessary; it remains for deterministic experiments and
// for repairing after simulated crashes without running virtual time.
func (n *Network) RecoverFailures(dead []id.ID, rng *rand.Rand, maxRounds int) RecoveryStats {
	if maxRounds <= 0 {
		maxRounds = 2*n.cfg.Params.D + 6
	}
	var st RecoveryStats

	// Round 0: local repair everywhere; remember which holders lost their
	// deepest-known neighbor. DropFailed runs on every machine, holder or
	// not: non-holders may still reference a dead node in their
	// reverse-neighbor sets, and a stale reverse entry would make a later
	// graceful leave wait forever for an acknowledgment that never comes.
	// Deterministic iteration: simulation runs must replay identically.
	ids := n.sortedIDs()
	var orphans []*core.Machine
	for _, x := range ids {
		m := n.machineNow(x)
		held := 0
		orphan := false
		for _, d := range dead {
			if c := countEntriesOf(m, d); c > 0 {
				held += c
				if m.DeepestNeighborIs(d) {
					orphan = true
				}
			}
		}
		if held > 0 {
			st.Holders++
			if orphan {
				orphans = append(orphans, m)
			}
		}
		for _, d := range dead {
			m.DropFailed(d)
		}
		st.LocalRepairs += held - len(m.RepairsPending())
	}

	// Orphan re-join: a node whose deepest neighbor crashed may have been
	// stored nowhere else (its join notified only nodes sharing its
	// deepest suffix, possibly just the dead node), making it unfindable
	// by search. It re-announces itself by re-running the join protocol;
	// Theorem 1 then refills every entry its notification set lost.
	//
	// Re-joins run one at a time: Theorem 2's termination argument for
	// concurrent joins relies on a joining node not yet being stored
	// anywhere (so JoinWait dependencies are acyclic), but re-joining
	// nodes already appear in each other's tables and could park each
	// other in Qj forever.
	deadSet := make(map[id.ID]bool, len(dead))
	for _, d := range dead {
		deadSet[d] = true
	}
	for _, m := range orphans {
		helper := pickHelper(m, deadSet, rng)
		if helper.IsZero() {
			continue
		}
		out, err := n.machineNow(m.Self().ID).StartRejoin(helper)
		if err != nil {
			continue // e.g. knocked out of in_system by a concurrent repair
		}
		st.Rejoined++
		n.transmit(out)
		n.Run()
	}
	n.Run()

	// Convergence rule: when a dead node was the sole carrier of a
	// suffix, every node that could certify the suffix's status is itself
	// waiting for a repair, and all queries block on each other. A live
	// carrier, in contrast, answers any query that reaches it, so forced
	// rounds (each rotating to fresh helpers) make progress while any
	// live carrier exists. After zeroProgressLimit consecutive rounds
	// without a single resolution, the remaining suffixes are concluded
	// dead and their entries stay (correctly) empty.
	const zeroProgressLimit = 3
	settleAll := func() (progress int) {
		for _, x := range ids {
			filled, emptied := n.machineNow(x).SettleRepairs()
			st.RoutedRepairs += filled
			st.Emptied += emptied
			progress += filled + emptied
		}
		return progress
	}
	pendingAll := func() int {
		total := 0
		for _, x := range ids {
			total += len(n.nodes[x].Machine().RepairsPending())
		}
		return total
	}
	zeroProgress := 0
	for round := 0; round < maxRounds; round++ {
		progress := settleAll()
		if round > 0 {
			if progress > 0 {
				zeroProgress = 0
			} else {
				zeroProgress++
			}
		}
		if zeroProgress >= zeroProgressLimit {
			for _, x := range ids {
				m := n.machineNow(x)
				for _, e := range m.RepairsPending() {
					m.AbandonRepair(e[0], e[1])
					st.Emptied++
				}
			}
		}
		if pendingAll() == 0 {
			break
		}
		st.Rounds++
		for _, x := range ids {
			n.transmit(n.machineNow(x).KickRepairs(n.engine.Now(), true))
		}
		n.Run()
	}
	settleAll()
	st.Unrepaired = pendingAll()
	return st
}

func countEntriesOf(m *core.Machine, who id.ID) int {
	c := 0
	m.Table().ForEach(func(_, _ int, nb table.Neighbor) {
		if nb.ID == who {
			c++
		}
	})
	return c
}

// pickHelper chooses a random live neighbor to start a rejoin from.
func pickHelper(m *core.Machine, dead map[id.ID]bool, rng *rand.Rand) table.Ref {
	var candidates []table.Ref
	seen := make(map[id.ID]bool)
	m.Table().ForEach(func(_, _ int, nb table.Neighbor) {
		if dead[nb.ID] || nb.ID == m.Self().ID || seen[nb.ID] {
			return
		}
		seen[nb.ID] = true
		candidates = append(candidates, nb.Ref())
	})
	if len(candidates) == 0 {
		return table.Ref{}
	}
	return candidates[rng.Intn(len(candidates))]
}
