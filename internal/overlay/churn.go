package overlay

import (
	"fmt"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/node"
)

// ScheduleLeave schedules node x's graceful departure (the §7 leave
// extension) at virtual time at. After Run, call FinalizeLeaves to
// unregister nodes that completed their departure. A member that is
// rejoining when the time arrives leaves once it is back in system, at
// the first clock-pump round that finds it there (RunFor); one that
// never gets back never leaves. A node that crashed or already left by
// then is skipped.
func (n *Network) ScheduleLeave(x id.ID, at time.Duration) error {
	nd, ok := n.nodes[x]
	if !ok {
		return fmt.Errorf("overlay: leave of unknown node %v", x)
	}
	n.engine.ScheduleAt(at, func() {
		if n.nodes[x] != nd {
			return // crashed
		}
		if nd.Machine().Status() < core.StatusInSystem {
			n.leaveOnReturn[x] = true
			return
		}
		n.startLeave(nd)
	})
	return nil
}

// startLeave starts nd's departure now; a node no longer in system
// (it already left) is skipped.
func (n *Network) startLeave(nd *node.Node) {
	nd.Advance(n.engine.Now())
	out, err := nd.Machine().StartLeave()
	if err != nil {
		return
	}
	n.transmit(out)
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
// future messages are dropped. Nobody is told: under Config.Liveness the
// survivors detect the crash and repair their own tables while RunFor
// advances the clock.
func (n *Network) InjectFailure(x id.ID) error {
	if _, ok := n.nodes[x]; !ok {
		return fmt.Errorf("overlay: failure of unknown node %v", x)
	}
	delete(n.nodes, x)
	delete(n.leaveOnReturn, x)
	n.removed[x] = true
	n.sorted = nil
	return nil
}
