package overlay

// Gray-failure fault injection: slow nodes, a per-node processing delay
// with a ramp, which the nemesis executor's slow op arms (E18, `paper
// gray`, runs on it). Unlike the crash and byzantine models, a gray
// node runs the correct protocol and answers every message — just late.
// A fixed-timeout failure detector cannot tell this from a crash; the
// adaptive (RTT-estimating) detector must.

import (
	"time"

	"hypercube/internal/id"
	"hypercube/internal/rtt"
)

// slowRamp is how long a node marked slow takes to reach its full
// delay. A marked node processes slowly in both directions: every
// message it sends or receives is delayed by its current per-side
// delay, so a round trip involving one slow endpoint inflates by 2x
// that delay. The delay ramps linearly from zero to the one MarkSlow
// gave over slowRamp — modeling gradual degradation (GC pressure, disk
// stalls, thermal throttling) rather than a step change, which is the
// harder case for an estimator that must chase a moving target.
const slowRamp = 2 * time.Second

// slowMark is one gray member: when it was marked and its full delay.
type slowMark struct{ since, delay time.Duration }

// MarkSlow marks the given members slow starting now, ramping to delay
// per side. A member already slow keeps its mark.
func (n *Network) MarkSlow(delay time.Duration, ids ...id.ID) {
	now := n.engine.Now()
	for _, x := range ids {
		if _, dup := n.slow[x]; !dup {
			n.slow[x] = slowMark{since: now, delay: delay}
		}
	}
}

// UnmarkSlow restores the given members to full speed (recovery).
func (n *Network) UnmarkSlow(ids ...id.ID) {
	for _, x := range ids {
		delete(n.slow, x)
	}
}

// slowDelay returns node x's current per-side processing delay: zero
// for fast nodes, its delay scaled by ramp progress for slow ones.
func (n *Network) slowDelay(x id.ID, now time.Duration) time.Duration {
	m, ok := n.slow[x]
	if !ok {
		return 0
	}
	if now-m.since >= slowRamp {
		return m.delay
	}
	return time.Duration(int64(m.delay) * int64(now-m.since) / int64(slowRamp))
}

// SlowDelayed returns how many message transmissions were delayed by
// the slow-node model so far.
func (n *Network) SlowDelayed() uint64 { return n.slowDelayed }

// RTTStats aggregates estimator counters over all live nodes.
func (n *Network) RTTStats() rtt.Stats { return n.stats().RTT }
