package core_test

// Resend scheduling with a per-peer seeded RetryAfter (the adaptive
// gray-failure extension): the backoff base comes from the estimator,
// but the attempt counts, give-up behavior, and join-restart paths
// must be exactly the fixed-timeout ones under any base.

import (
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/rtt"
)

// seedEstimate returns an estimator that has learned peer x at the
// given round-trip (one sample: srtt = s, RTO = 3s clamped).
func seedEstimate(x id.ID, sample time.Duration) *rtt.Estimator {
	est := rtt.New()
	est.Observe(x, sample)
	return est
}

// TestSeededBackoffDoublesFromPeerBase: an exchange against a peer
// whose RTO is known uses that RTO as the backoff base — and doubles
// it per resend, exactly like the fixed base would.
func TestSeededBackoffDoublesFromPeerBase(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 100 * time.Millisecond, MaxAttempts: 4}}
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	// 200ms sample -> RTO = 200 + 4*100 = 600ms, 6x the fixed base.
	j.SetRTT(seedEstimate(seed.Self().ID, 200*time.Millisecond))

	must(j.StartJoin(seed.Self()))
	// The fixed base (100ms) must NOT trigger: the seeded base is 600ms.
	if out := j.Tick(500 * time.Millisecond); len(out) != 0 {
		t.Fatalf("resend before the seeded 600ms base: %v", out)
	}
	if out := j.Tick(700 * time.Millisecond); len(out) != 1 || out[0].Msg.Type() != msg.TCpRst {
		t.Fatalf("first seeded resend: %v, want one CpRst", out)
	}
	// Second resend doubles the seeded base: due at 700ms + 1200ms.
	if out := j.Tick(1800 * time.Millisecond); len(out) != 0 {
		t.Fatalf("resend before the doubled base: %v", out)
	}
	if out := j.Tick(2 * time.Second); len(out) != 1 || out[0].Msg.Type() != msg.TCpRst {
		t.Fatalf("second seeded resend: %v, want one CpRst", out)
	}
	if got := j.Counters().SentOf(msg.TCpRst); got != 3 {
		t.Fatalf("CpRst sent %d times, want 3", got)
	}
}

// TestGiveUpAttemptsUnchangedUnderSeededBase: MaxAttempts counts
// transmissions, not time — a 6x-larger seeded base still gives up
// after exactly the same number of attempts and restarts the join
// through the fallback gateway.
func TestGiveUpAttemptsUnchangedUnderSeededBase(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := timeoutOpts() // RetryAfter 100ms, MaxAttempts 2
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	pp.add(seed)
	b := core.NewJoiner(p, ref(p, "2101"), opts)
	pp.add(b)
	pp.enqueue(must(b.StartJoin(seed.Self())))
	pp.run()
	if !b.IsSNode() {
		t.Fatalf("setup joiner stuck in %v", b.Status())
	}

	j := core.NewJoiner(p, ref(p, "0123"), opts)
	j.SetRTT(seedEstimate(seed.Self().ID, 200*time.Millisecond))
	j.AddGateways(b.Self())
	must(j.StartJoin(seed.Self())) // lost: the seed is silently dead
	// Attempt 2 (the last allowed) fires at the seeded 600ms base.
	if out := j.Tick(600 * time.Millisecond); len(out) != 1 || out[0].To.ID != seed.Self().ID {
		t.Fatalf("first timeout should retry the seed, got %v", out)
	}
	// Cap reached: the next overdue tick restarts via the fallback.
	out := j.Tick(2 * time.Second)
	if len(out) != 1 || out[0].Msg.Type() != msg.TCpRst || out[0].To.ID != b.Self().ID {
		t.Fatalf("give-up produced %v, want a fresh CpRst to fallback %v", out, b.Self().ID)
	}
	if j.Status() != core.StatusCopying {
		t.Fatalf("status after restart: %v", j.Status())
	}
}

// TestExchangeReplySampledIntoEstimator: a reply to a never-resent
// request feeds the measured round-trip back into the estimator.
func TestExchangeReplySampledIntoEstimator(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: time.Second, MaxAttempts: 4}}
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	est := rtt.New()
	j.SetRTT(est)

	out := must(j.StartJoin(seed.Self())) // CpRst sent at clock 0
	replies := seed.Deliver(out[0])
	if len(replies) == 0 {
		t.Fatalf("seed ignored CpRst")
	}
	j.Advance(80 * time.Millisecond) // the reply arrives 80ms later
	j.Deliver(replies[0])
	srtt, ok := est.SRTT(seed.Self().ID)
	if !ok || srtt != 80*time.Millisecond {
		t.Fatalf("exchange RTT sample = %v,%v, want 80ms,true", srtt, ok)
	}
}

// TestResentExchangeNotSampled (Karn's rule): once an exchange has
// been resent, its reply is ambiguous and must not feed the estimator.
func TestResentExchangeNotSampled(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 100 * time.Millisecond, MaxAttempts: 4}}
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	est := rtt.New()
	j.SetRTT(est)

	must(j.StartJoin(seed.Self())) // lost
	resent := j.Tick(150 * time.Millisecond)
	if len(resent) != 1 {
		t.Fatalf("expected one resend, got %v", resent)
	}
	replies := seed.Deliver(resent[0])
	if len(replies) == 0 {
		t.Fatalf("seed ignored resent CpRst")
	}
	j.Advance(300 * time.Millisecond)
	j.Deliver(replies[0])
	if st := est.Stats(); st.Samples != 0 {
		t.Fatalf("resent exchange was sampled: %+v", st)
	}
}
