package liveness

// Tests for the adaptive-timeout (gray-failure) extension: per-peer
// probe budgets from the RTT estimator, accrual suspicion, late-pong
// learning — plus the fixed-mode overlap invariant they must not
// disturb.

import (
	"testing"
	"time"

	"hypercube/internal/msg"
	"hypercube/internal/rtt"
	"hypercube/internal/table"
)

// runDelayed drives one prober under a virtual clock, delivering each
// probe's replies after a caller-chosen delay. respond sees every
// envelope the prober emits and returns the replies plus the delay
// before they arrive (negative delay = blackhole). Replies are handed
// in at the loop's virtual time, so RTT samples are exact.
func runDelayed(p *Prober, until time.Duration, respond func(now time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration)) (declared []table.Ref, declaredAt []time.Duration) {
	type timed struct {
		at  time.Duration
		env msg.Envelope
	}
	var queue []timed
	now := time.Duration(0)
	const step = 25 * time.Millisecond
	for ; now <= until; now += step {
		keep := queue[:0]
		for _, q := range queue {
			if q.at <= now {
				p.HandleMessage(q.env, now)
			} else {
				keep = append(keep, q)
			}
		}
		queue = keep
		out, dec, _ := p.Tick(now)
		for _, d := range dec {
			declared = append(declared, d)
			declaredAt = append(declaredAt, now)
		}
		for _, env := range out {
			replies, d := respond(now, env)
			if d < 0 {
				continue
			}
			for _, r := range replies {
				queue = append(queue, timed{at: now + d, env: r})
			}
		}
	}
	return declared, declaredAt
}

// TestOverlapMissAccountingInvariant pins the ProbeTimeout (1s) vs
// ProbeInterval (250ms) interaction from the defaults: the pending==0
// guard in Tick means routine probes to a silent peer never overlap in
// inflight, so misses accrue at exactly one per ProbeTimeout — not one
// per ProbeInterval. Four-fold faster intervals must not quadruple the
// evidence against a slow peer.
func TestOverlapMissAccountingInvariant(t *testing.T) {
	cfg := Config{
		ProbeInterval: 250 * time.Millisecond,
		ProbeTimeout:  time.Second,
		SuspectAfter:  4,
		ConfirmRounds: 2,
	}
	self := mkRef(t, "0000")
	a := mkRef(t, "1111")
	p := NewProber(cfg, self)
	p.SetTargets([]table.Ref{a})

	maxPending := 0
	for now := time.Duration(0); now < 3900*time.Millisecond; now += 50 * time.Millisecond {
		p.Tick(now)
		tgt := p.targets[a.ID]
		if tgt == nil {
			t.Fatalf("target vanished at %v", now)
		}
		if tgt.pending > maxPending {
			maxPending = tgt.pending
		}
	}
	if maxPending != 1 {
		t.Fatalf("routine probes overlapped: max pending = %d, want 1", maxPending)
	}
	// Probes at 0s, 1s, 2s, 3s; misses charged at 1s, 2s, 3s.
	tgt := p.targets[a.ID]
	if tgt.missed != 3 {
		t.Fatalf("missed = %d after 3.9s, want 3 (one per ProbeTimeout)", tgt.missed)
	}
	if tgt.susp != 3 {
		t.Fatalf("susp = %v, want exactly 3.0 (fixed mode mirrors missed)", tgt.susp)
	}
	if st := p.Stats(); st.ProbesSent != 4 || st.Suspects != 0 {
		t.Fatalf("stats = %+v, want 4 probes sent and no suspicion yet", st)
	}
}

// TestAdaptiveSlowPeerNotDeclared is the core gray-failure property: a
// peer answering consistently at 600ms — far beyond the 250ms fixed
// timeout — is never declared once the estimator learns its latency
// from late pongs.
func TestAdaptiveSlowPeerNotDeclared(t *testing.T) {
	cfg := Config{
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  3,
		ConfirmRounds: 2,
	}
	self := mkRef(t, "0000")
	slow := mkRef(t, "1111")
	p := NewProber(cfg, self)
	p.SetRTT(rtt.New())
	p.SetTargets([]table.Ref{slow})

	declared, _ := runDelayed(p, 10*time.Second, func(_ time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
		if pm, ok := env.Msg.(*msg.Ping); ok && env.To.ID == slow.ID {
			return RespondPing(nil, slow, env.From, pm), 600 * time.Millisecond
		}
		return nil, -1
	})
	if len(declared) != 0 {
		t.Fatalf("slow-but-alive peer declared failed: %v", declared)
	}
	st := p.Stats()
	if st.LatePongs == 0 {
		t.Fatalf("no late pongs recorded — estimator never fed: %+v", st)
	}
	if st.AdaptiveDeadlines == 0 {
		t.Fatalf("no adaptive deadlines used: %+v", st)
	}
	if rto, ok := p.RTT().RTO(slow.ID); !ok || rto <= 600*time.Millisecond {
		t.Fatalf("estimator RTO = %v,%v — did not learn the 600ms peer", rto, ok)
	}
}

// TestFixedBaselineDeclaresSlowPeer is the contrast run: the same
// 600ms peer under fixed timeouts (no estimator) is falsely declared
// dead once it slows down, because late pongs are dropped.
func TestFixedBaselineDeclaresSlowPeer(t *testing.T) {
	cfg := Config{
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  3,
		ConfirmRounds: 2,
	}
	self := mkRef(t, "0000")
	gray := mkRef(t, "1111")
	p := NewProber(cfg, self)
	p.SetTargets([]table.Ref{gray})

	// Fast for 2s (so it is seen alive — a declarable target), then 600ms.
	declared, _ := runDelayed(p, 15*time.Second, func(now time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
		if pm, ok := env.Msg.(*msg.Ping); ok && env.To.ID == gray.ID {
			d := 50 * time.Millisecond
			if now >= 2*time.Second {
				d = 600 * time.Millisecond
			}
			return RespondPing(nil, gray, env.From, pm), d
		}
		return nil, -1
	})
	if len(declared) != 1 || declared[0].ID != gray.ID {
		t.Fatalf("fixed timeouts did not falsely declare the gray peer: %v", declared)
	}
}

// TestAdaptiveRampRescuedByConfirmFloor covers the nastiest gray case:
// a peer the estimator learned as fast (RTO at MinRTO) abruptly turns
// 600ms-slow. Misses against it charge double, so it is suspected
// almost immediately — but confirmation rounds are floored at the
// fixed ProbeTimeout, which keeps the declaration window open long
// enough for the first late pong to arrive, feed the estimator, and
// revive it.
func TestAdaptiveRampRescuedByConfirmFloor(t *testing.T) {
	cfg := Config{
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  3,
		ConfirmRounds: 2,
	}
	self := mkRef(t, "0000")
	gray := mkRef(t, "1111")
	p := NewProber(cfg, self)
	p.SetRTT(rtt.New())
	p.SetTargets([]table.Ref{gray})

	declared, _ := runDelayed(p, 10*time.Second, func(now time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
		if pm, ok := env.Msg.(*msg.Ping); ok && env.To.ID == gray.ID {
			d := 50 * time.Millisecond
			if now >= 2*time.Second {
				d = 600 * time.Millisecond
			}
			return RespondPing(nil, gray, env.From, pm), d
		}
		return nil, -1
	})
	if len(declared) != 0 {
		t.Fatalf("ramping gray peer declared failed under adaptive timeouts: %v", declared)
	}
	st := p.Stats()
	if st.LatePongs == 0 {
		t.Fatalf("ramp never produced a late pong: %+v", st)
	}
	if rto, ok := p.RTT().RTO(gray.ID); !ok || rto <= 600*time.Millisecond {
		t.Fatalf("estimator never chased the ramp: RTO = %v,%v", rto, ok)
	}
}

// TestAdaptiveDeclaresDeadFasterOnFastLink: the flip side of per-peer
// deadlines. A genuinely dead peer whose link was learned fast (RTO
// near MinRTO) misses its first probe on that short deadline, so the
// adaptive prober reaches the declaration sooner than the fixed-timeout
// one under identical traffic — by the first miss only: every later
// probe is floored at ProbeTimeout (TestAdaptiveNeverShrinksWindow).
func TestAdaptiveDeclaresDeadFasterOnFastLink(t *testing.T) {
	cfg := Config{
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  3,
		ConfirmRounds: 2,
	}
	run := func(adaptive bool) time.Duration {
		self := mkRef(t, "0000")
		dead := mkRef(t, "1111")
		p := NewProber(cfg, self)
		if adaptive {
			p.SetRTT(rtt.New())
		}
		p.SetTargets([]table.Ref{dead})
		declared, at := runDelayed(p, 15*time.Second, func(now time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
			if pm, ok := env.Msg.(*msg.Ping); ok && env.To.ID == dead.ID && now < 2*time.Second {
				return RespondPing(nil, dead, env.From, pm), 50 * time.Millisecond
			}
			return nil, -1
		})
		if len(declared) != 1 || declared[0].ID != dead.ID {
			t.Fatalf("dead peer not declared (adaptive=%v): %v", adaptive, declared)
		}
		return at[0]
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive >= fixed {
		t.Fatalf("adaptive declaration (%v) not faster than fixed (%v)", adaptive, fixed)
	}
}

// TestAdaptiveNeverShrinksWindow: adaptivity may extend the declaration
// window, never shrink it. A dead peer the estimator knows at a 100 ms
// RTO misses its first probe early, but then needs SuspectAfter − 1 more
// misses and ConfirmRounds rounds of at least ProbeTimeout each: misses
// charge at most 1 and a distressed target's probes wait at least
// ProbeTimeout. Without either rule the re-probes would declare it in
// about 2 s.
func TestAdaptiveNeverShrinksWindow(t *testing.T) {
	self := mkRef(t, "0000")
	dead := mkRef(t, "1111")
	est := rtt.New()
	for range 8 {
		est.Observe(dead.ID, 10*time.Millisecond)
	}
	if rto, _ := est.RTO(dead.ID); rto != 100*time.Millisecond {
		t.Fatalf("estimator RTO = %v, want the 100ms floor", rto)
	}
	p := NewProber(Config{}, self)
	p.SetRTT(est)
	p.SetTargets([]table.Ref{dead})
	p.Observe(dead.ID)
	firstMiss := time.Duration(-1)
	for now := time.Duration(0); now <= 15*time.Second; now += 10 * time.Millisecond {
		_, declared, _ := p.Tick(now)
		if tgt := p.targets[dead.ID]; firstMiss < 0 && tgt != nil && tgt.missed > 0 {
			firstMiss = now
		}
		if len(declared) == 0 {
			continue
		}
		if firstMiss != 100*time.Millisecond {
			t.Fatalf("first miss at %v, want at the 100ms RTO", firstMiss)
		}
		window := p.cfg.ProbeTimeout * time.Duration(p.cfg.SuspectAfter-1+p.cfg.ConfirmRounds)
		if got := now - firstMiss; got < window {
			t.Fatalf("declared %v after the first miss (at %v), want no sooner than %v", got, firstMiss, window)
		}
		return
	}
	t.Fatal("dead peer never declared")
}

// TestRecentBufferBounded: the late-pong buffer must not grow without
// bound when a peer expires probes forever and never answers.
func TestRecentBufferBounded(t *testing.T) {
	cfg := cfgFast()
	self := mkRef(t, "0000")
	a := mkRef(t, "1111")
	p := NewProber(cfg, self)
	p.SetRTT(rtt.New())
	p.SetTargets([]table.Ref{a})
	runDelayed(p, 2*time.Minute, func(_ time.Duration, env msg.Envelope) ([]msg.Envelope, time.Duration) {
		return nil, -1
	})
	if len(p.recent) > recentCap || len(p.recentQ) > recentCap {
		t.Fatalf("recent buffer unbounded: %d entries, %d queued", len(p.recent), len(p.recentQ))
	}
}
