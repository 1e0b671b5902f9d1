// Package rtt estimates per-peer round-trip times and derives retry
// deadlines from them — the measured-RTT substrate of the gray-failure
// extension (and of future proximity neighbor selection).
//
// The paper's failure model is crash-only: a node is either correct or
// silent, so one global probe timeout suffices. Real overlays mostly
// degrade instead of dying — a peer stays alive but answers 10× slower,
// or one direction of a link drags. A fixed timeout then fails both
// ways at once: tuned to the fast majority it declares slow-but-alive
// peers dead, tuned to the slow tail it detects genuine crashes late.
// The standard repair is Jacobson/Karels estimation (the TCP RTO
// discipline): track a smoothed RTT and its mean deviation per peer and
// time out at srtt + 4·rttvar, clamped to [MinRTO, MaxRTO].
//
// The estimator is deliberately clock-agnostic and deterministic: it
// never reads a clock — callers hand it measured samples as
// time.Duration values — and its arithmetic is pure integer EWMA, so
// the overlay simulator replays bit-identically under virtual time
// while tcptransport feeds it wall-clock samples. One Estimator serves
// one node and tracks all of that node's peers. Two parts share it (the
// liveness prober feeds probe RTTs, core.Machine feeds request/reply
// round-trips); a composed node runs both, and every other reader,
// under the one lock its runtime serialises the node with. The
// estimator keeps an uncontended lock of its own all the same, so it
// stays safe for concurrent use without relying on that discipline.
//
// On top of the per-peer RTO the estimator derives a "degraded" health
// flag: a peer whose smoothed RTT stays persistently inflated relative
// to the node's other peers (the cross-peer median) is marked degraded,
// with hysteresis so a borderline peer does not flap. Consumers
// deprioritize degraded peers (anti-entropy partner choice, the
// sampling validator) without declaring them dead — gray failure is a
// health state, not a crash.
package rtt

import (
	"slices"
	"sync"
	"time"

	"hypercube/internal/id"
)

// Config selects an Estimator for a node; it has no fields, and a
// non-nil *Config is the switch that attaches one.
type Config struct{}

// The derived retry timeout is clamped to [MinRTO, MaxRTO]. Below
// MinRTO, scheduler granularity and queueing jitter dominate the
// measurement and a timeout would misfire on noise; MaxRTO keeps a peer
// with a wildly inflated history from pushing detection latency up
// without bound.
const (
	MinRTO = 100 * time.Millisecond
	MaxRTO = 5 * time.Second
)

// A peer is marked degraded when its smoothed RTT exceeds
// degradedFactor times the cross-peer median, and cleared (hysteresis)
// when it falls back to half that. It is judged only from its
// degradedMinSamples-th sample on, and the median only counts once
// degradedMinPeers peers are tracked.
const degradedFactor, degradedMinSamples, degradedMinPeers = 4, 4, 4

// Stats is a snapshot of the estimator's activity, for admin endpoints
// and scenario reports.
type Stats struct {
	// Tracked is the number of peers with at least one sample.
	Tracked int `json:"tracked" metric:"gauge"`
	// Degraded is the number of peers currently flagged degraded.
	Degraded int `json:"degraded" metric:"gauge"`
	// Samples counts all observations ever fed.
	Samples int `json:"samples"`
	// Marked / Cleared count degraded-flag transitions.
	Marked  int `json:"marked"`
	Cleared int `json:"cleared"`
}

// Update reports the outcome of one observation: the peer's new RTO,
// whether it is degraded, and whether this sample flipped the flag
// (so the caller can emit a transition event exactly once).
type Update struct {
	RTO      time.Duration
	SRTT     time.Duration
	Degraded bool
	Changed  bool
}

// peerEstimate is the Jacobson/Karels state for one peer.
type peerEstimate struct {
	srtt     time.Duration
	rttvar   time.Duration
	samples  int
	degraded bool
}

// Estimator tracks round-trip estimates for all peers of one node. It
// is safe for concurrent use.
type Estimator struct {
	mu    sync.Mutex
	peers map[id.ID]*peerEstimate
	// srtts holds the srtt of every sampled peer, sorted, so the
	// cross-peer median is an index.
	srtts []time.Duration

	degraded int // current flag count
	samples  int
	marked   int
	cleared  int
}

// New creates an estimator with no samples.
func New() *Estimator {
	return &Estimator{peers: make(map[id.ID]*peerEstimate)}
}

// Observe feeds one measured round-trip for peer x and returns the
// updated estimate. Non-positive samples are ignored (a clock glitch
// must not poison the EWMA); the returned Update then reflects the
// unchanged state.
func (e *Estimator) Observe(x id.ID, sample time.Duration) Update {
	e.mu.Lock()
	defer e.mu.Unlock()
	pe := e.peers[x]
	if pe == nil {
		pe = &peerEstimate{}
		e.peers[x] = pe
	}
	if sample > 0 {
		if pe.samples == 0 {
			// First sample: srtt = s, rttvar = s/2 (RFC 6298 §2.2).
			pe.srtt = sample
			pe.rttvar = sample / 2
		} else {
			e.dropSRTT(pe.srtt)
			// srtt += err/8; rttvar += (|err| - rttvar)/4.
			err := sample - pe.srtt
			pe.srtt += err / 8
			if err < 0 {
				err = -err
			}
			pe.rttvar += (err - pe.rttvar) / 4
		}
		i, _ := slices.BinarySearch(e.srtts, pe.srtt)
		e.srtts = slices.Insert(e.srtts, i, pe.srtt)
		pe.samples++
		e.samples++
	}
	changed := e.reassess(pe)
	return Update{RTO: e.rto(pe), SRTT: pe.srtt, Degraded: pe.degraded, Changed: changed}
}

// rto derives the clamped retry timeout from one peer's estimate.
// Callers hold e.mu.
func (e *Estimator) rto(pe *peerEstimate) time.Duration {
	return min(max(pe.srtt+4*pe.rttvar, MinRTO), MaxRTO)
}

// reassess re-evaluates one peer's degraded flag against the cross-peer
// median, with hysteresis: mark above degradedFactor × median, clear at
// or below half that. Returns whether the flag flipped. Callers hold
// e.mu.
func (e *Estimator) reassess(pe *peerEstimate) bool {
	if pe.samples < degradedMinSamples {
		return false
	}
	med := e.medianSRTT()
	if med <= 0 {
		return false
	}
	limit := degradedFactor * float64(med)
	switch {
	case !pe.degraded && float64(pe.srtt) > limit:
		pe.degraded = true
		e.degraded++
		e.marked++
		return true
	case pe.degraded && float64(pe.srtt) <= limit/2:
		pe.degraded = false
		e.degraded--
		e.cleared++
		return true
	}
	return false
}

// medianSRTT returns the median smoothed RTT over all sampled peers;
// zero when fewer than degradedMinPeers are tracked. Callers hold e.mu.
func (e *Estimator) medianSRTT() time.Duration {
	if len(e.srtts) < degradedMinPeers {
		return 0
	}
	return e.srtts[len(e.srtts)/2]
}

// dropSRTT removes one copy of d from srtts. Callers hold e.mu.
func (e *Estimator) dropSRTT(d time.Duration) {
	i, _ := slices.BinarySearch(e.srtts, d)
	e.srtts = slices.Delete(e.srtts, i, i+1)
}

// RTO returns the retry timeout derived for peer x, and whether any
// samples exist to derive it from. Callers fall back to their fixed
// default when ok is false.
func (e *Estimator) RTO(x id.ID) (rto time.Duration, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pe := e.peers[x]
	if pe == nil || pe.samples == 0 {
		return 0, false
	}
	return e.rto(pe), true
}

// SRTT returns the smoothed round-trip estimate for peer x.
func (e *Estimator) SRTT(x id.ID) (srtt time.Duration, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pe := e.peers[x]
	if pe == nil || pe.samples == 0 {
		return 0, false
	}
	return pe.srtt, true
}

// Degraded reports whether peer x is currently flagged degraded.
func (e *Estimator) Degraded(x id.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	pe := e.peers[x]
	return pe != nil && pe.degraded
}

// DegradedCount returns how many peers are flagged degraded now.
func (e *Estimator) DegradedCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.degraded
}

// Forget drops all state for peer x (declared failed, departed, or no
// longer monitored).
func (e *Estimator) Forget(x id.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pe := e.peers[x]; pe != nil {
		if pe.degraded {
			e.degraded--
		}
		if pe.samples > 0 {
			e.dropSRTT(pe.srtt)
		}
		delete(e.peers, x)
	}
}

// Stats returns a snapshot of the activity counters.
func (e *Estimator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Tracked:  len(e.srtts),
		Degraded: e.degraded,
		Samples:  e.samples,
		Marked:   e.marked,
		Cleared:  e.cleared,
	}
}
