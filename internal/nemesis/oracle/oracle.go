// Package oracle holds the invariant checks a chaos scenario is judged
// by: a false-declaration watcher teed into the event stream, and the
// quiescence-point audit (Definition 3.8 consistency plus sampled
// Definition 3.7 reachability). The nemesis executor applies both to
// every schedule it runs — generated ones and cmd/paper's E13-E18 —
// and the repository benchmark reuses the watcher.
//
// Everything here needs global knowledge and therefore lives in the
// verification harness, never in protocol nodes.
package oracle

import (
	"time"

	"hypercube/internal/id"
	"hypercube/internal/obs"
)

// DeclWatch splits failure declarations into genuine (the declared peer
// was deliberately killed) and false (it was alive when declared).
// Scenario drivers tee it into the network's event sink; the simulator
// emits from a single goroutine, so no lock is needed.
type DeclWatch struct {
	dead     map[id.ID]bool
	genuine  int
	falsePos int
	examples []id.ID

	// Detection latency, populated only through MarkDeadAt: virtual
	// crash time per peer and the virtual time of the first declaration
	// that names it. A peer marked by MarkDead alone — a leaver — never
	// enters declAt.
	crashedAt map[id.ID]time.Duration
	declAt    map[id.ID]time.Duration
}

// NewDeclWatch returns an empty watcher.
func NewDeclWatch() *DeclWatch {
	return &DeclWatch{
		dead:      make(map[id.ID]bool),
		crashedAt: make(map[id.ID]time.Duration),
		declAt:    make(map[id.ID]time.Duration),
	}
}

// Emit implements obs.Sink: every declared-kind event is classified
// against the marked-dead set.
func (w *DeclWatch) Emit(e obs.Event) {
	if e.Kind != obs.KindDeclared {
		return
	}
	if w.dead[e.Peer] {
		w.genuine++
		_, crashed := w.crashedAt[e.Peer]
		if _, seen := w.declAt[e.Peer]; crashed && !seen {
			w.declAt[e.Peer] = e.T
		}
		return
	}
	w.falsePos++
	if len(w.examples) < 5 {
		w.examples = append(w.examples, e.Peer)
	}
}

// MarkDead records that the given nodes were deliberately killed, so
// declarations naming them count as genuine.
func (w *DeclWatch) MarkDead(ids ...id.ID) {
	for _, x := range ids {
		w.dead[x] = true
	}
}

// MarkDeadAt is MarkDead plus a crash timestamp, enabling
// MeanDetection for the peers it marks.
func (w *DeclWatch) MarkDeadAt(now time.Duration, ids ...id.ID) {
	w.MarkDead(ids...)
	for _, x := range ids {
		w.crashedAt[x] = now
	}
}

// Genuine returns how many declarations named a deliberately killed
// node.
func (w *DeclWatch) Genuine() int { return w.genuine }

// FalsePositives returns how many declarations named a live node.
func (w *DeclWatch) FalsePositives() int { return w.falsePos }

// Examples returns up to five falsely declared peers, in declaration
// order.
func (w *DeclWatch) Examples() []id.ID { return w.examples }

// Detected returns how many distinct MarkDeadAt-tracked peers have been
// declared at least once.
func (w *DeclWatch) Detected() int { return len(w.declAt) }

// MeanDetection averages crash-to-first-declaration latency over the
// peers marked via MarkDeadAt that were actually declared; zero when
// none were.
func (w *DeclWatch) MeanDetection() time.Duration {
	var sum time.Duration
	for peer, at := range w.declAt {
		sum += at - w.crashedAt[peer]
	}
	if len(w.declAt) == 0 {
		return 0
	}
	return sum / time.Duration(len(w.declAt))
}
