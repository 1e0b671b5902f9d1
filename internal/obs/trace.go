package obs

import (
	"slices"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
)

// JoinSpan is one node's join attempt reconstructed from a trace: from
// its first join_start (or first copying transition, whichever arrives
// first) to its in_system transition. Phase durations follow the
// paper's lifecycle: copying (neighbor-table construction via CpRstMsg
// walks), waiting (JoinWaitMsg sent, blocked on the gateway's notify
// grant), notifying (JoinNotiMsg flood until the last reply).
type JoinSpan struct {
	Node      string        `json:"node"`
	Start     time.Duration `json:"start"` // first join activity observed
	End       time.Duration `json:"end"`   // in_system transition; zero if !Completed
	Copying   time.Duration `json:"copying"`
	Waiting   time.Duration `json:"waiting"`
	Notifying time.Duration `json:"notifying"`
	Restarts  int           `json:"restarts"`  // timeout-driven join restarts (join_start with N>0)
	Completed bool          `json:"completed"` // reached in_system
}

// Total returns the full join latency, zero if the join never finished.
func (s JoinSpan) Total() time.Duration {
	if !s.Completed {
		return 0
	}
	return s.End - s.Start
}

// Summary is what one streaming pass over a trace counts: the part of a
// Report that needs no span trees and no percentile math. Its JSON form
// (flattened into Report's) is the struct.
type Summary struct {
	Events       int           `json:"events"`
	TracedEvents int           `json:"tracedEvents"` // events carrying causal trace context
	Span         time.Duration `json:"span"`         // time of the last event
	// Nodes counts distinct emitting nodes. Joiners are len(Joins); nodes
	// that ever reported a status are Convergence.Nodes.
	Nodes     int            `json:"nodes"`
	Joins     []JoinSpan     `json:"joins"` // completed and incomplete, by start time
	Sent      map[string]int `json:"sent"`  // message-type name -> send count
	Received  map[string]int `json:"received"`
	Retries   int            `json:"retries"`
	Drops     int            `json:"drops"`
	Resends   int            `json:"resends"`
	GiveUps   int            `json:"giveUps"`
	Probes    int            `json:"probes"`
	ProbeMiss int            `json:"probeMisses"`
	Suspects  int            `json:"suspects"`
	Declared  int            `json:"declared"`
	Repairs   int            `json:"repairs"` // repair_start events
	SyncRound int            `json:"syncRounds"`
	// Guard-layer activity (hostile-input hardening).
	GuardRejects int `json:"guardRejects"`       // semantically invalid messages rejected
	GuardDrops   int `json:"guardDrops"`         // unvalidated drops: unknown types, quarantined senders
	Quarantines  int `json:"quarantines"`        // peers quarantined for repeated misbehavior
	Releases     int `json:"quarantineReleases"` // quarantines released after cooldown
	Busy         int `json:"busyDeferrals"`      // budget-exceeded deferrals
	// Gray-failure (adaptive timeout) activity: LatePongs counts acks
	// that arrived after their probe expired (Detail "late").
	LatePongs       int `json:"latePongs"`
	Degraded        int `json:"degradedMarked"` // degraded-flag marks
	DegradedCleared int `json:"degradedCleared"`
}

// Completed returns only the joins that reached in_system.
func (s *Summary) Completed() []JoinSpan {
	out := make([]JoinSpan, 0, len(s.Joins))
	for _, j := range s.Joins {
		if j.Completed {
			out = append(out, j)
		}
	}
	return out
}

// nodeState is what the analyzer keeps per emitting node: its join span
// and its latest protocol status.
type nodeState struct {
	span    JoinSpan
	started bool
	phase   string // latest status; "" until the node reports one
	phaseAt time.Duration
}

// flagSet tracks which (observer, peer) pairs currently hold a liveness
// flag (suspected, degraded, quarantined). Keying by the pair, not the
// peer alone, makes the result independent of how per-node streams are
// interleaved: a flag is only ever lowered by the node that raised it.
type flagSet map[flagKey]struct{}

type flagKey struct {
	node string
	peer id.ID
}

func (s flagSet) set(e Event, on bool) {
	if k := (flagKey{e.Node, e.Peer}); on {
		s[k] = struct{}{}
	} else {
		delete(s, k)
	}
}

// peers counts the distinct peers flagged by at least one observer.
func (s flagSet) peers() int {
	seen := make(map[id.ID]struct{}, len(s))
	for k := range s {
		seen[k.peer] = struct{}{}
	}
	return len(seen)
}

// Analyzer reduces a stream of events to a Report: Feed every event
// (each node's events in trace order; nodes may interleave or follow one
// another, so per-node files concatenate), then call Report once. Events
// without trace context are folded into counters and per-node state —
// O(nodes + message types) memory, so an untraced multi-GB soak trace
// analyzes in one pass; only events carrying trace context are retained,
// for span-tree reconstruction.
type Analyzer struct {
	only   string // when set, events from other nodes are skipped
	nodes  map[string]*nodeState
	sum    Summary
	traced []Event

	suspected, degraded, quarantined flagSet

	// probeRTTs collects the round trip each probe_ack carries, capped at
	// probeRTTCap samples, for Report.ProbeRTT.
	probeRTTs []time.Duration
}

// probeRTTCap bounds the collected RTT samples: enough for percentile
// stability on soak-length traces without holding every sample of a
// long run.
const probeRTTCap = 1 << 18

// NewAnalyzer creates an empty analyzer. A non-empty node restricts the
// whole analysis to events that node emitted (one node's view of a
// merged fleet trace).
func NewAnalyzer(node string) *Analyzer {
	return &Analyzer{
		only:        node,
		nodes:       make(map[string]*nodeState),
		suspected:   make(flagSet),
		degraded:    make(flagSet),
		quarantined: make(flagSet),
		sum: Summary{
			Sent:     make(map[string]int),
			Received: make(map[string]int),
		},
	}
}

// Feed processes one event.
func (a *Analyzer) Feed(e Event) {
	if a.only != "" && e.Node != a.only {
		return
	}
	a.sum.Events++
	if e.T > a.sum.Span {
		a.sum.Span = e.T
	}
	if e.Trace != "" {
		a.traced = append(a.traced, e)
	}
	ns, ok := a.nodes[e.Node]
	if !ok {
		ns = &nodeState{span: JoinSpan{Node: e.Node}}
		a.nodes[e.Node] = ns
	}
	switch e.Kind {
	case KindJoinStart:
		if !ns.started {
			ns.started = true
			ns.span.Start = e.T
		}
		if e.N > 0 {
			ns.span.Restarts++
		}
	case KindStatus:
		if e.Detail == "copying" && !ns.started {
			ns.started = true
			ns.span.Start = e.T
		}
		if ns.started && !ns.span.Completed && ns.phase != "" {
			d := e.T - ns.phaseAt
			switch ns.phase {
			case "copying":
				ns.span.Copying += d
			case "waiting":
				ns.span.Waiting += d
			case "notifying":
				ns.span.Notifying += d
			}
		}
		if e.Detail == "in_system" && ns.started && !ns.span.Completed {
			ns.span.Completed = true
			ns.span.End = e.T
		}
		ns.phase = e.Detail
		ns.phaseAt = e.T
	case KindSend:
		a.sum.Sent[e.Msg]++
	case KindRecv:
		a.sum.Received[e.Msg]++
	case KindRetry:
		a.sum.Retries++
	case KindDrop:
		a.sum.Drops++
	case KindResend:
		a.sum.Resends++
	case KindGiveUp:
		a.sum.GiveUps++
	case KindProbe:
		a.sum.Probes++
	case KindProbeAck:
		if e.Detail == "late" {
			a.sum.LatePongs++
		}
		if e.RTT > 0 && len(a.probeRTTs) < probeRTTCap {
			a.probeRTTs = append(a.probeRTTs, e.RTT)
		}
	case KindProbeMiss:
		a.sum.ProbeMiss++
	case KindDegraded:
		a.sum.Degraded++
		a.degraded.set(e, true)
	case KindDegradedClear:
		a.sum.DegradedCleared++
		a.degraded.set(e, false)
	case KindSuspect:
		a.sum.Suspects++
		a.suspected.set(e, true)
	case KindRecovered:
		a.suspected.set(e, false)
	case KindDeclared:
		a.sum.Declared++
		a.suspected.set(e, false)
	case KindRepairStart:
		a.sum.Repairs++
	case KindSyncRound:
		a.sum.SyncRound++
	case KindGuardReject:
		a.sum.GuardRejects++
	case KindGuardDrop:
		a.sum.GuardDrops++
	case KindQuarantine:
		a.sum.Quarantines++
		a.quarantined.set(e, true)
	case KindQuarantineRelease:
		a.sum.Releases++
		a.quarantined.set(e, false)
	case KindBusy:
		a.sum.Busy++
	}
}

// Stats is the percentile summary of one duration sample set
// (nearest-rank); the zero value describes an empty set.
type Stats struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50"`
	P90   time.Duration `json:"p90"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// summarize sorts one copy of ds and reads every percentile off it.
func summarize(ds []time.Duration) Stats {
	if len(ds) == 0 {
		return Stats{}
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := func(p float64) time.Duration {
		r := int(float64(len(sorted))*p/100 + 0.5)
		return sorted[min(max(r, 1), len(sorted))-1]
	}
	return Stats{
		Count: len(sorted),
		P50:   rank(50), P90: rank(90), P99: rank(99),
		Max: sorted[len(sorted)-1],
	}
}

// bigMsgs names the table-carrying message types (msg.Message.Big): their
// payload scales with the neighbor table, so the big/small split of a
// trace's sends approximates the paper's §5.2 bandwidth accounting.
var bigMsgs = func() map[string]bool {
	big := make(map[string]bool)
	for _, m := range msg.Zero() {
		if m.Big() {
			big[m.Type().String()] = true
		}
	}
	return big
}()

// BigMsg reports whether name is the paper name of a table-carrying
// message type.
func BigMsg(name string) bool { return bigMsgs[name] }
