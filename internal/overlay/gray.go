package overlay

// Gray-failure fault injection: slow nodes, a per-node processing delay
// with a ramp, which E18 (`paper gray`) arms. Unlike the crash and
// byzantine models, a gray node runs the correct protocol and answers
// every message — just late. A fixed-timeout failure detector cannot
// tell this from a crash; the adaptive (RTT-estimating) detector must.

import (
	"math/rand"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/rtt"
	"hypercube/internal/table"
)

// SlowNodes configures per-node processing-delay injection. A marked
// node processes slowly in both directions: every message it sends or
// receives is delayed by the current per-side delay, so a round trip
// involving one slow endpoint inflates by 2x the delay. The delay
// ramps linearly from zero to Delay over Ramp — modeling gradual
// degradation (GC pressure, disk stalls, thermal throttling) rather
// than a step change, which is the harder case for an estimator that
// must chase a moving target.
type SlowNodes struct {
	// Delay is the full per-side processing delay once the ramp
	// completes. Default 500ms.
	Delay time.Duration
	// Ramp is how long a newly marked node takes to reach Delay;
	// 0 applies the full delay immediately.
	Ramp time.Duration
	// Fraction of the candidates SelectSlow marks, in [0,1].
	Fraction float64
	// Seed feeds the deterministic selection.
	Seed int64
}

func (s *SlowNodes) delay() time.Duration {
	if s.Delay <= 0 {
		return 500 * time.Millisecond
	}
	return s.Delay
}

// MarkSlow marks the given members slow starting now (their delay
// begins ramping). Panics unless the network was configured with
// Config.SlowNodes.
func (n *Network) MarkSlow(ids ...id.ID) {
	if n.cfg.SlowNodes == nil {
		panic("overlay: MarkSlow without Config.SlowNodes")
	}
	now := n.engine.Now()
	for _, x := range ids {
		if _, dup := n.slow[x]; !dup {
			n.slow[x] = now
		}
	}
}

// UnmarkSlow restores the given members to full speed (recovery).
func (n *Network) UnmarkSlow(ids ...id.ID) {
	for _, x := range ids {
		delete(n.slow, x)
	}
}

// SelectSlow deterministically draws Fraction of the candidates
// (rounded down, minimum 1 when Fraction > 0), marks them slow, and
// returns their IDs. The draw depends only on SlowNodes.Seed and the
// candidate order — the same discipline as SelectByzantine, with an
// independent stream so the two fault sets are uncorrelated.
func (n *Network) SelectSlow(candidates []table.Ref) []id.ID {
	s := n.cfg.SlowNodes
	if s == nil {
		panic("overlay: SelectSlow without Config.SlowNodes")
	}
	count := int(s.Fraction * float64(len(candidates)))
	if count == 0 && s.Fraction > 0 && len(candidates) > 0 {
		count = 1
	}
	rng := rand.New(rand.NewSource(s.Seed ^ 0x536c6f77)) // "Slow"
	perm := rng.Perm(len(candidates))
	out := make([]id.ID, 0, count)
	for _, i := range perm[:count] {
		out = append(out, candidates[i].ID)
	}
	n.MarkSlow(out...)
	return out
}

// slowDelay returns node x's current per-side processing delay: zero
// for fast nodes, Delay scaled by ramp progress for slow ones.
func (n *Network) slowDelay(x id.ID, now time.Duration) time.Duration {
	since, ok := n.slow[x]
	if !ok {
		return 0
	}
	s := n.cfg.SlowNodes
	d := s.delay()
	if s.Ramp <= 0 || now-since >= s.Ramp {
		return d
	}
	return time.Duration(int64(d) * int64(now-since) / int64(s.Ramp))
}

// SlowDelayed returns how many message transmissions were delayed by
// the slow-node model so far.
func (n *Network) SlowDelayed() uint64 { return n.slowDelayed }

// RTT returns node x's estimator, if Config.RTT attached one.
func (n *Network) RTT(x id.ID) (*rtt.Estimator, bool) {
	nd, ok := n.nodes[x]
	if !ok || nd.RTT() == nil {
		return nil, false
	}
	return nd.RTT(), true
}

// RTTStats aggregates estimator counters over all live nodes.
func (n *Network) RTTStats() rtt.Stats { return n.stats().RTT }
