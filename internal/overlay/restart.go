package overlay

import (
	"fmt"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/persist"
	"hypercube/internal/table"
)

// Settle advances the network one round at a time until every table
// satisfies Definition 3.8, for at most maxRounds rounds. It returns the
// rounds consumed and whether consistency was reached.
func (n *Network) Settle(round time.Duration, maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if len(n.CheckConsistency()) == 0 {
			return r, true
		}
		n.RunFor(round)
	}
	return maxRounds, len(n.CheckConsistency()) == 0
}

// Persist writes member x's table and sampled peers to path: the dump a
// daemon leaves behind (persist.SaveFileState).
func (n *Network) Persist(x id.ID, path string) error {
	tbl, ok := n.TableOf(x)
	if !ok {
		return fmt.Errorf("overlay: persist %v: not a member", x)
	}
	var sampled []table.Ref
	if s, ok := n.Sampler(x); ok {
		sampled = s.View()
	}
	return persist.SaveFileState(path, tbl.Snapshot(), sampled)
}

// Restart brings a crashed member back from the dump Persist wrote at
// path. An intact dump restores it as an established node: its sampler
// is re-primed from the persisted peers and it re-announces itself with
// a rejoin through helper(persisted peers), drained before Restart
// returns. A dump persist.IsCorrupt rejects must not kill the restart:
// the node comes back with no state, restored is false, and a fresh
// join through helper(nil) is scheduled for the current instant — the
// caller runs the network until the returned machine is an S-node. Any
// other load error, or a helper that is zero or the node itself, is
// returned.
func (n *Network) Restart(ref table.Ref, path string, helper func(sampled []table.Ref) table.Ref) (m *core.Machine, restored bool, err error) {
	snap, sampled, err := persist.LoadFileState(path, n.cfg.Params)
	if err != nil && !persist.IsCorrupt(err) {
		return nil, false, err
	}
	corrupt := err != nil // sampled is nil then
	g0 := helper(sampled)
	if g0.IsZero() || g0.ID == ref.ID {
		return nil, false, fmt.Errorf("overlay: no live helper for restarting member %v", ref.ID)
	}
	if corrupt {
		return n.ScheduleJoin(ref, g0, n.engine.Now()), false, nil
	}
	m = n.AddEstablished(ref, persist.Restore(snap))
	if s, ok := n.Sampler(ref.ID); ok && len(sampled) > 0 {
		s.SeedPeers(sampled...)
	}
	out, err := m.StartRejoin(g0)
	if err != nil {
		return nil, false, err
	}
	n.transmit(out)
	n.Run()
	return m, true, nil
}
