package overlay

// Clock-jump/pause fault injection: a paused node's local ticks stall
// and its inbound traffic queues, then everything bursts at resume —
// the discrete-event analogue of a long GC pause, a VM live-migration
// blackout, or a laptop lid closing. Unlike a crash the node never
// loses state, and unlike a slow node (MarkSlow) the stall is total:
// nothing is processed until the pause ends, at which point every
// deferred delivery fires in one instant and the node's probers and
// timers catch up. The failure detector must ride this out: a pause
// shorter than the declaration window may suspect the node but must
// never declare it, and the RTT estimator must absorb the burst of
// late pongs without poisoning its per-peer estimates.

import (
	"fmt"
	"time"

	"hypercube/internal/id"
)

// PauseNode stalls node x for d of virtual time starting now: its
// clock-pump ticks (probing, timeout resends, anti-entropy and
// sampling rounds) are skipped and every message delivered to it is
// deferred to the resume instant, where the whole backlog bursts.
// Messages the node already emitted stay in flight. Pausing an
// already-paused node extends the pause if the new deadline is later.
func (n *Network) PauseNode(x id.ID, d time.Duration) error {
	if _, ok := n.nodes[x]; !ok {
		return fmt.Errorf("overlay: pause of unknown node %v", x)
	}
	if d <= 0 {
		return fmt.Errorf("overlay: pause of %v for non-positive duration %v", x, d)
	}
	until := n.engine.Now() + d
	if cur, ok := n.paused[x]; !ok || until > cur {
		n.paused[x] = until
	}
	return nil
}

// PausedDeferred returns how many deliveries the pause fault deferred
// to a resume burst so far.
func (n *Network) PausedDeferred() uint64 { return n.pauseDeferred }

// pausedNow reports whether x is paused at virtual time now, lazily
// forgetting expired pauses.
func (n *Network) pausedNow(x id.ID, now time.Duration) bool {
	until, ok := n.paused[x]
	if !ok {
		return false
	}
	if now >= until {
		delete(n.paused, x)
		return false
	}
	return true
}
