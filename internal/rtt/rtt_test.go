package rtt

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"hypercube/internal/id"
)

var p44 = id.Params{B: 4, D: 4}

func mkID(t *testing.T, s string) id.ID {
	t.Helper()
	return id.MustParse(p44, s)
}

func TestFirstSampleSeedsEstimate(t *testing.T) {
	e := New()
	x := mkID(t, "1111")
	if _, ok := e.RTO(x); ok {
		t.Fatalf("RTO reported before any sample")
	}
	u := e.Observe(x, 200*time.Millisecond)
	// srtt = s, rttvar = s/2 -> RTO = s + 4*(s/2) = 3s = 600ms.
	if u.SRTT != 200*time.Millisecond {
		t.Fatalf("first srtt = %v, want 200ms", u.SRTT)
	}
	if u.RTO != 600*time.Millisecond {
		t.Fatalf("first RTO = %v, want 600ms", u.RTO)
	}
	if rto, ok := e.RTO(x); !ok || rto != u.RTO {
		t.Fatalf("RTO() = %v,%v, want %v,true", rto, ok, u.RTO)
	}
}

func TestEWMAConvergesAndVarShrinks(t *testing.T) {
	e := New()
	x := mkID(t, "1111")
	var u Update
	for i := 0; i < 64; i++ {
		u = e.Observe(x, 100*time.Millisecond)
	}
	if u.SRTT < 99*time.Millisecond || u.SRTT > 101*time.Millisecond {
		t.Fatalf("srtt did not converge: %v", u.SRTT)
	}
	// With zero deviation the variance decays toward zero and the RTO
	// approaches srtt (floored by MinRTO).
	if u.RTO > 110*time.Millisecond {
		t.Fatalf("RTO did not tighten on a steady peer: %v", u.RTO)
	}
}

func TestRTOClamped(t *testing.T) {
	e := New()
	fast, slow := mkID(t, "1111"), mkID(t, "2222")
	var u Update
	for i := 0; i < 32; i++ {
		u = e.Observe(fast, time.Millisecond)
	}
	if u.RTO != MinRTO {
		t.Fatalf("fast peer RTO = %v, want MinRTO clamp %v", u.RTO, MinRTO)
	}
	for i := 0; i < 32; i++ {
		u = e.Observe(slow, 10*time.Second)
	}
	if u.RTO != MaxRTO {
		t.Fatalf("slow peer RTO = %v, want MaxRTO clamp %v", u.RTO, MaxRTO)
	}
}

func TestNonPositiveSampleIgnored(t *testing.T) {
	e := New()
	x := mkID(t, "1111")
	e.Observe(x, 100*time.Millisecond)
	before, _ := e.SRTT(x)
	e.Observe(x, 0)
	e.Observe(x, -time.Second)
	after, _ := e.SRTT(x)
	if before != after {
		t.Fatalf("non-positive sample moved srtt: %v -> %v", before, after)
	}
	if st := e.Stats(); st.Samples != 1 {
		t.Fatalf("non-positive samples counted: %+v", st)
	}
}

// degradeSetup drives three fast peers and one slow peer to steady
// state and returns the estimator plus the slow peer's ID.
func degradeSetup(t *testing.T, slowRTT time.Duration) (*Estimator, id.ID) {
	t.Helper()
	e := New()
	fast := []id.ID{mkID(t, "1111"), mkID(t, "2222"), mkID(t, "3333")}
	slow := mkID(t, "1230")
	for i := 0; i < 8; i++ {
		for _, x := range fast {
			e.Observe(x, 50*time.Millisecond)
		}
		e.Observe(slow, slowRTT)
	}
	return e, slow
}

func TestDegradedMarkAndClear(t *testing.T) {
	e, slow := degradeSetup(t, 900*time.Millisecond)
	if !e.Degraded(slow) {
		t.Fatalf("10x-slower peer not flagged degraded")
	}
	st := e.Stats()
	if st.Degraded != 1 || st.Marked != 1 {
		t.Fatalf("stats after mark: %+v", st)
	}
	// Recovery: the peer speeds back up; hysteresis clears the flag
	// once srtt falls to half the mark threshold.
	var u Update
	for i := 0; i < 64 && e.Degraded(slow); i++ {
		u = e.Observe(slow, 50*time.Millisecond)
	}
	if u.Degraded {
		t.Fatalf("degraded flag never cleared after recovery (srtt %v)", u.SRTT)
	}
	st = e.Stats()
	if st.Degraded != 0 || st.Cleared != 1 {
		t.Fatalf("stats after clear: %+v", st)
	}
}

func TestDegradedTransitionReportedOnce(t *testing.T) {
	e, slow := degradeSetup(t, 900*time.Millisecond)
	// The mark transition already happened inside degradeSetup; further
	// slow samples must not report Changed again.
	for i := 0; i < 8; i++ {
		if u := e.Observe(slow, 900*time.Millisecond); u.Changed {
			t.Fatalf("steady degraded peer re-reported a transition")
		}
	}
	_ = e
}

func TestDegradedNeedsQuorum(t *testing.T) {
	// With fewer than degradedMinPeers tracked there is no meaningful
	// median: nobody is flagged no matter how slow.
	e := New()
	a, b := mkID(t, "1111"), mkID(t, "2222")
	for i := 0; i < 16; i++ {
		e.Observe(a, 10*time.Millisecond)
		e.Observe(b, 10*time.Second)
	}
	if e.Degraded(b) {
		t.Fatalf("peer flagged degraded with only %d peers tracked", 2)
	}
}

func TestForgetDropsDegraded(t *testing.T) {
	e, slow := degradeSetup(t, 900*time.Millisecond)
	e.Forget(slow)
	if e.Degraded(slow) {
		t.Fatalf("forgotten peer still degraded")
	}
	if st := e.Stats(); st.Degraded != 0 || st.Tracked != 3 {
		t.Fatalf("stats after forget: %+v", st)
	}
	if _, ok := e.RTO(slow); ok {
		t.Fatalf("forgotten peer still has an RTO")
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two estimators fed the identical sample stream must agree bit for
	// bit — the overlay scenarios rely on replay determinism.
	run := func() (time.Duration, time.Duration, Stats) {
		e, slow := degradeSetup(t, 700*time.Millisecond)
		rto, _ := e.RTO(slow)
		srtt, _ := e.SRTT(slow)
		return rto, srtt, e.Stats()
	}
	r1, s1, st1 := run()
	r2, s2, st2 := run()
	if r1 != r2 || s1 != s2 || st1 != st2 {
		t.Fatalf("replay diverged: %v/%v/%+v vs %v/%v/%+v", r1, s1, st1, r2, s2, st2)
	}
}

// TestMedianTracksSampledPeers holds the kept sorted slice to the median
// of every sampled peer's srtt, recomputed from scratch, through random
// observations, ignored samples and forgets.
func TestMedianTracksSampledPeers(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	var pool []id.ID
	for _, s := range []string{"0000", "0001", "0012", "0123", "1230", "2301", "3012", "3333", "2222", "1111", "0202", "1313"} {
		pool = append(pool, mkID(t, s))
	}
	for i := range 5000 {
		x := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(10); {
		case r == 0:
			e.Forget(x)
		case r == 1:
			e.Observe(x, 0)
		default:
			e.Observe(x, time.Duration(1+rng.Intn(500))*time.Millisecond)
		}
		var srtts []time.Duration
		for _, pe := range e.peers {
			if pe.samples > 0 {
				srtts = append(srtts, pe.srtt)
			}
		}
		slices.Sort(srtts)
		want := time.Duration(0)
		if len(srtts) >= degradedMinPeers {
			want = srtts[len(srtts)/2]
		}
		if got := e.medianSRTT(); got != want || e.Stats().Tracked != len(srtts) {
			t.Fatalf("op %d: median %v over %d tracked, want %v over %d", i, got, e.Stats().Tracked, want, len(srtts))
		}
	}
}
