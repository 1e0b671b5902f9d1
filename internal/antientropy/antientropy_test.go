package antientropy

import (
	"slices"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

var p44 = id.Params{B: 4, D: 4}

func ref(t *testing.T, s string) table.Ref {
	t.Helper()
	return table.Ref{ID: id.MustParse(p44, s), Addr: "sim://" + s}
}

// twoNodeNet joins b into a's single-node network and runs the exchange
// to quiescence, returning two established machines.
func twoNodeNet(t *testing.T) (*core.Machine, *core.Machine) {
	t.Helper()
	a := core.NewSeed(p44, ref(t, "0000"), core.Options{})
	b := core.NewJoiner(p44, ref(t, "1111"), core.Options{})
	byID := map[id.ID]*core.Machine{a.Self().ID: a, b.Self().ID: b}
	queue, err := b.StartJoin(a.Self())
	if err != nil {
		t.Fatal(err)
	}
	for len(queue) > 0 {
		env := queue[0]
		queue = append(queue[1:], byID[env.To.ID].Deliver(env)...)
	}
	if !a.IsSNode() || !b.IsSNode() {
		t.Fatalf("join did not settle: %v / %v", a.Status(), b.Status())
	}
	return a, b
}

func TestEngineRoundCadence(t *testing.T) {
	a, b := twoNodeNet(t)
	_ = b
	e := New(Config{Interval: time.Second}, a)

	// The first tick only arms the staggered schedule; rounds then fire
	// once per interval, catching up after a long gap.
	e.Tick(0)
	if got := e.Stats().Rounds; got > 1 {
		t.Fatalf("%d rounds on the arming tick, want at most 1", got)
	}
	e.Tick(3 * time.Second)
	if got := e.Stats().Rounds; got < 2 || got > 4 {
		t.Fatalf("%d rounds after 3s at 1s interval, want 2..4", got)
	}
	// A quiescent instant later produces nothing new.
	before := e.Stats().Rounds
	if out := e.Tick(3 * time.Second); len(out) != 0 || e.Stats().Rounds != before {
		t.Fatalf("re-tick at same instant ran %d extra rounds", e.Stats().Rounds-before)
	}
}

func TestEngineSyncsWithPeer(t *testing.T) {
	a, b := twoNodeNet(t)
	e := New(Config{Interval: time.Second}, a)
	e.Tick(0)
	out := e.Tick(2 * time.Second)
	if len(out) == 0 {
		t.Fatal("no sync traffic after an interval elapsed")
	}
	var sawReq bool
	for _, env := range out {
		if env.Msg.Type() == msg.TSyncReq {
			sawReq = true
			if env.To.ID != b.Self().ID {
				t.Fatalf("sync request addressed to %v, want %v", env.To.ID, b.Self().ID)
			}
		}
	}
	if !sawReq {
		t.Fatalf("no SyncReq among %d envelopes", len(out))
	}
}

func TestEngineIdleWithoutPeersOrStatus(t *testing.T) {
	// A lone seed has no sync partners: audits run but no rounds count.
	lone := core.NewSeed(p44, ref(t, "0000"), core.Options{})
	e := New(Config{Interval: time.Second}, lone)
	e.Tick(0)
	if out := e.Tick(5 * time.Second); len(out) != 0 || e.Stats().Rounds != 0 {
		t.Fatalf("lone node synced: %d envelopes, %d rounds", len(out), e.Stats().Rounds)
	}

	// A joiner that never completed its join must not sync at all.
	stuck := core.NewJoiner(p44, ref(t, "2222"), core.Options{})
	e2 := New(Config{Interval: time.Second}, stuck)
	e2.Tick(0)
	if out := e2.Tick(5 * time.Second); len(out) != 0 {
		t.Fatalf("non-S-node emitted %d envelopes", len(out))
	}
}

func TestEngineStaggerDeterministicAndBounded(t *testing.T) {
	a, _ := twoNodeNet(t)
	cfg := Config{Interval: time.Second}
	e1, e2 := New(cfg, a), New(cfg, a)
	if s1, s2 := e1.stagger(), e2.stagger(); s1 != s2 {
		t.Fatalf("stagger not deterministic: %v vs %v", s1, s2)
	}
	if s := e1.stagger(); s < 0 || s >= cfg.Interval {
		t.Fatalf("stagger %v outside [0, %v)", s, cfg.Interval)
	}
}

// degraded is a Health that flags the peers it returns true for.
type degraded func(id.ID) bool

func (f degraded) Degraded(x id.ID) bool { return f(x) }

// DegradedCount claims a flagged peer, so the engine asks about each.
func (f degraded) DegradedCount() int { return 1 }

// TestEngineDeprioritizesDegradedPartner: with a health predicate
// wired, a degraded peer is skipped as sync partner while healthy
// alternatives exist — but an all-degraded neighborhood still syncs.
func TestEngineDeprioritizesDegradedPartner(t *testing.T) {
	a, b := twoNodeNet(t)
	e := New(Config{Interval: time.Second}, a)

	// b is the only peer and it is degraded: the round must still run.
	e.SetHealth(degraded(func(id.ID) bool { return true }))
	e.Tick(0)
	out := e.Tick(2 * time.Second)
	sawReq := false
	for _, env := range out {
		if env.Msg.Type() == msg.TSyncReq && env.To.ID == b.Self().ID {
			sawReq = true
		}
	}
	if !sawReq {
		t.Fatalf("all-degraded neighborhood stopped syncing entirely")
	}
	if e.Stats().Deprioritized != 0 {
		t.Fatalf("deprioritized counted without a healthy alternative: %+v", e.Stats())
	}

	// With a second live peer, the degraded one is filtered out of every
	// table round and the healthy one chosen instead.
	c := core.NewJoiner(p44, ref(t, "2222"), core.Options{})
	byID := map[id.ID]*core.Machine{a.Self().ID: a, b.Self().ID: b, c.Self().ID: c}
	queue, err := c.StartJoin(a.Self())
	if err != nil {
		t.Fatal(err)
	}
	for len(queue) > 0 {
		env := queue[0]
		queue = append(queue[1:], byID[env.To.ID].Deliver(env)...)
	}
	if !c.IsSNode() {
		t.Fatalf("third node stuck in %v", c.Status())
	}
	e2 := New(Config{Interval: time.Second}, a)
	e2.SetHealth(degraded(func(x id.ID) bool { return x == b.Self().ID }))
	e2.Tick(0)
	rounds := 0
	for now := time.Second; now <= 10*time.Second; now += time.Second {
		for _, env := range e2.Tick(now) {
			if env.Msg.Type() != msg.TSyncReq {
				continue
			}
			rounds++
			if env.To.ID == b.Self().ID {
				t.Fatalf("round picked the degraded peer %v over a healthy one", env.To.ID)
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no sync rounds ran")
	}
	if e2.Stats().Deprioritized == 0 {
		t.Fatalf("filtering never counted: %+v", e2.Stats())
	}
}

// roundTimes ticks e every 10 ms from from, and at to, and returns when
// each round that sent a SyncReq was due.
func roundTimes(e *Engine, from, to time.Duration) []time.Duration {
	var due []time.Duration
	for now := from; ; now = min(now+10*time.Millisecond, to) {
		for _, env := range e.Tick(now) {
			if env.Msg.Type() == msg.TSyncReq {
				due = append(due, e.last)
			}
		}
		if now == to {
			return due
		}
	}
}

// TestEngineBacksOffAndResets pins the Trickle schedule: while nothing
// is heard the gap doubles from Interval up to maxBackoff × Interval;
// news resets it and brings the next round forward to one Interval
// after the last, or to the next tick when that has passed; the round
// after the news waits one Interval, and the back-off starts again. A
// suspect that answers again is synced with at the next tick.
func TestEngineBacksOffAndResets(t *testing.T) {
	const interval = time.Second
	a, b := twoNodeNet(t)
	e := New(Config{Interval: interval}, a)
	var signals uint64
	e.SetNews(func() uint64 { return signals })
	e.Tick(0)
	first := e.nextDue

	// Quiet: the SyncReqs are never delivered, so nothing moves.
	want := []time.Duration{first}
	for gap := 2 * interval; len(want) < 6; gap = min(2*gap, maxBackoff*interval) {
		want = append(want, want[len(want)-1]+gap)
	}
	quietEnd := want[len(want)-1]
	got := roundTimes(e, 10*time.Millisecond, quietEnd)
	if !slices.Equal(got, want) {
		t.Fatalf("quiet rounds at %v, want %v", got, want)
	}

	// News 10 ms after a round: the next round is one Interval after it.
	signals++
	want = []time.Duration{quietEnd + interval, quietEnd + 2*interval}
	got = roundTimes(e, quietEnd+10*time.Millisecond, quietEnd+2*interval)
	if !slices.Equal(got, want) {
		t.Fatalf("after news: rounds at %v, want %v", got, want)
	}
	if e.gap != min(2*interval, maxBackoff*interval) {
		t.Fatalf("gap %v after a quiet round, want it doubling again", e.gap)
	}

	// News heard later than one Interval after the last round, while the
	// next is not due yet: the round runs at that tick. The machine's own
	// news counts as well.
	last := quietEnd + 2*interval
	late := last + interval + interval/4
	roundTimes(e, last+10*time.Millisecond, late)
	a.Table().Set(3, 3, table.Neighbor{ID: id.MustParse(p44, "3000"), Addr: "sim://3000", State: table.StateS})
	if got := roundTimes(e, late+time.Millisecond, late+time.Millisecond); len(got) != 1 || got[0] != last+interval {
		t.Fatalf("news %v after the last round: rounds due at %v on the next tick, want one due at %v", late-last, got, last+interval)
	}

	// A suspect that answers again is synced with at the next tick; that
	// round is news to nobody yet, so the gap after it doubles.
	now := late + 10*time.Millisecond
	e.Tick(now)
	e.Returned(b.Self().ID)
	now += 10 * time.Millisecond
	out := e.Tick(now)
	if len(out) != 1 || out[0].To.ID != b.Self().ID || e.last != now {
		t.Fatalf("tick after Returned sent %v, want one SyncReq to %v at once", out, b.Self().ID)
	}
	if want := now + min(2*interval, maxBackoff*interval); e.nextDue != want {
		t.Fatalf("next round due %v after the returned peer's, want %v", e.nextDue, want)
	}
}

// TestEngineSkipsHealthWhileNoneDegraded: while the health source flags
// no peer, the round asks about none of them.
func TestEngineSkipsHealthWhileNoneDegraded(t *testing.T) {
	a, _ := twoNodeNet(t)
	e := New(Config{Interval: time.Second}, a)
	asked := 0
	e.SetHealth(noneFlagged{&asked})
	e.Tick(0)
	if e.Tick(2 * time.Second); e.Stats().Rounds == 0 {
		t.Fatal("no round ran")
	}
	if asked != 0 {
		t.Fatalf("health asked about %d peers while none is flagged", asked)
	}
}

// noneFlagged is a Health with no peer flagged that counts questions.
type noneFlagged struct{ asked *int }

func (h noneFlagged) Degraded(id.ID) bool { *h.asked++; return false }
func (h noneFlagged) DegradedCount() int  { return 0 }
