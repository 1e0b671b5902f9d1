package guard

import (
	"time"

	"hypercube/internal/id"
)

// Policy switches the misbehavior scorer on: a machine built with a
// non-nil *Policy charges peers for rejected input and quarantines
// repeat offenders. It has no fields; every deployment scores at the
// constants below.
type Policy struct{}

// The scorer's policy.
const (
	// threshold is the score at which a peer is quarantined. Each
	// violation charges one unit (callers may weight differently), so a
	// peer is quarantined after 8 violations inside the decay window.
	threshold = 8
	// decay is the time for one unit of score to drain away; a peer that
	// stops misbehaving is forgiven at rate 1/decay.
	decay = 5 * time.Second
	// cooldown is how long a quarantined peer's traffic is dropped at
	// ingress before it is released (score reset).
	cooldown = 30 * time.Second
	// maxPeers bounds the tracked-peer map; when full, the lowest-scored
	// tracked peer is evicted to admit a new offender, so an attacker
	// rotating spoofed IDs costs bounded memory.
	maxPeers = 1024
)

// Stats are the scorer's lifetime counters plus the current quarantine
// population.
type Stats struct {
	// Charges counts violations charged; Quarantines peers that crossed
	// the threshold; Releases quarantines that expired; Evictions tracked
	// peers displaced by the maxPeers bound.
	Charges     int `json:"charges"`
	Quarantines int `json:"quarantines"`
	Releases    int `json:"releases"`
	Evictions   int `json:"evictions"`
	// Quarantined is how many peers are quarantined right now (as of the
	// last Charge/Quarantined call that observed them).
	Quarantined int `json:"quarantined" metric:"gauge"`
}

type peerScore struct {
	score float64
	last  time.Duration // when score was last updated
	until time.Duration // quarantined until; 0 = not quarantined
}

// Scorer tracks per-peer misbehavior with linear decay and quarantine.
// It is not safe for concurrent use; drive it from the same goroutine
// (or under the same lock) as the protocol machine it protects. Time is
// supplied by the caller as a duration since the run started, matching
// the clocks of both runtimes (virtual in the simulator, wall in TCP).
type Scorer struct {
	peers map[id.ID]*peerScore
	stats Stats
}

// NewScorer creates a scorer that tracks no peer yet.
func NewScorer() *Scorer {
	return &Scorer{peers: make(map[id.ID]*peerScore)}
}

// Charge records one violation of the given weight by peer x at time
// now. It returns true when the charge pushed the peer over the
// threshold — the moment it entered quarantine.
func (s *Scorer) Charge(x id.ID, weight float64, now time.Duration) bool {
	s.stats.Charges++
	ps := s.peers[x]
	if ps == nil {
		if len(s.peers) >= maxPeers {
			s.evict()
		}
		ps = &peerScore{last: now}
		s.peers[x] = ps
	}
	s.expire(ps, now)
	if ps.until > 0 {
		return false // already quarantined; the clock keeps running
	}
	ps.score = s.decayed(ps, now) + weight
	ps.last = now
	if ps.score >= threshold {
		ps.until = now + cooldown
		s.stats.Quarantines++
		s.stats.Quarantined++
		return true
	}
	return false
}

// Quarantined reports whether peer x is quarantined at time now,
// releasing it first if its cooldown expired.
func (s *Scorer) Quarantined(x id.ID, now time.Duration) bool {
	ps := s.peers[x]
	if ps == nil {
		return false
	}
	s.expire(ps, now)
	return ps.until > 0
}

// expire releases a quarantine whose cooldown has passed, resetting the
// peer's score so it restarts with a clean slate.
func (s *Scorer) expire(ps *peerScore, now time.Duration) {
	if ps.until > 0 && now >= ps.until {
		ps.until = 0
		ps.score = 0
		ps.last = now
		s.stats.Releases++
		s.stats.Quarantined--
	}
}

// decayed returns the peer's score after linear decay since last update.
func (s *Scorer) decayed(ps *peerScore, now time.Duration) float64 {
	if now <= ps.last {
		return ps.score
	}
	drained := float64(now-ps.last) / float64(decay)
	if drained >= ps.score {
		return 0
	}
	return ps.score - drained
}

// evict removes the lowest-scored non-quarantined tracked peer (or the
// quarantined peer with the earliest release if all are quarantined).
// A quarantined peer's score counts its release time, so among equal
// scores none releases earlier than another; ties go to the lowest ID,
// so the victim does not depend on the map's iteration order.
func (s *Scorer) evict() {
	var victim id.ID
	var best *peerScore
	bestScore := 0.0
	for x, ps := range s.peers {
		score := ps.score
		if ps.until > 0 {
			// Keep quarantined peers tracked in preference to scored
			// ones: forgetting a quarantine would lift it early.
			score = threshold + float64(ps.until)
		}
		if best == nil || score < bestScore || score == bestScore && x.Less(victim) {
			victim, best, bestScore = x, ps, score
		}
	}
	if best == nil {
		return
	}
	if best.until > 0 {
		s.stats.Quarantined--
	}
	delete(s.peers, victim)
	s.stats.Evictions++
}

// Stats returns a copy of the scorer's counters.
func (s *Scorer) Stats() Stats { return s.stats }
