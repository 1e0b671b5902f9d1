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

// Persist writes member x's table to path: the dump a daemon leaves
// behind (persist.SaveFileState).
func (n *Network) Persist(x id.ID, path string) error {
	tbl, ok := n.TableOf(x)
	if !ok {
		return fmt.Errorf("overlay: persist %v: not a member", x)
	}
	return persist.SaveFileState(path, tbl.Snapshot())
}

// Restart brings a crashed member back from the dump Persist wrote at
// path. An intact dump restores it as an established node that
// re-announces itself with a rejoin through helper, drained before
// Restart returns. A dump persist.IsCorrupt rejects must not kill the
// restart: the node comes back with no state, restored is false, and a
// fresh join through helper is scheduled for the current instant — the
// caller runs the network until the returned machine is an S-node. Any
// other load error, or a helper that is zero or the node itself, is
// returned.
func (n *Network) Restart(ref table.Ref, path string, helper table.Ref) (m *core.Machine, restored bool, err error) {
	snap, err := persist.LoadFileState(path, n.cfg.Params)
	if err != nil && !persist.IsCorrupt(err) {
		return nil, false, err
	}
	if helper.IsZero() || helper.ID == ref.ID {
		return nil, false, fmt.Errorf("overlay: no live helper for restarting member %v", ref.ID)
	}
	if err != nil {
		return n.ScheduleJoin(ref, helper, n.engine.Now()), false, nil
	}
	m = n.AddEstablished(ref, persist.Restore(snap))
	out, err := m.StartRejoin(helper)
	if err != nil {
		return nil, false, err
	}
	n.transmit(out)
	n.Run()
	return m, true, nil
}
