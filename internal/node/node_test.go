package node

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
)

// These tests drive a Node only through Deliver, Tick and Advance — the
// whole surface a driver has — so what they pin holds for the simulator
// and the TCP runtime alike.

var p43 = id.Params{B: 4, D: 3}

func ref(s string) table.Ref {
	return table.Ref{ID: id.MustParse(p43, s), Addr: "test://" + s}
}

var (
	self  = ref("000")
	peerX = ref("001")
	peerY = ref("002")
	peerZ = ref("003")
)

// established returns an in_system machine for self whose level-0 row
// holds peers X, Y and Z.
func established(opts core.Options) *core.Machine {
	tbl := table.New(p43, self.ID)
	for i := 0; i < p43.D; i++ {
		tbl.Set(i, 0, table.Neighbor{ID: self.ID, Addr: self.Addr, State: table.StateS})
	}
	for _, r := range []table.Ref{peerX, peerY, peerZ} {
		tbl.Set(0, r.ID.Digit(0), table.Neighbor{ID: r.ID, Addr: r.Addr, State: table.StateS})
	}
	return core.NewEstablished(p43, self, tbl, opts)
}

func fastLiveness() *liveness.Config {
	return &liveness.Config{ProbeInterval: 10 * time.Millisecond, ProbeTimeout: 20 * time.Millisecond}
}

func to(from table.Ref, m msg.Message) msg.Envelope {
	return msg.Envelope{From: from, To: self, Msg: m}
}

func TestDispatch(t *testing.T) {
	full := Config{
		Liveness:    fastLiveness(),
		AntiEntropy: &antientropy.Config{},
		Sampling:    &sampling.Config{},
	}
	cases := []struct {
		name        string
		cfg         Config
		msg         msg.Message
		wantMachine bool     // the machine counts the message as received
		wantReply   msg.Type // type of the single reply, 0 for none
	}{
		{"ping, prober attached", full, &msg.Ping{Seq: 7}, false, msg.TPong},
		{"pong, prober attached", full, msg.Pong{Seq: 7}, false, 0},
		{"ping, bare", Config{}, &msg.Ping{Seq: 7}, true, 0},
		{"sample pull request, sampler attached", full, msg.SamplePullReq{}, false, msg.TSamplePullRly},
		{"sample push, bare", Config{}, msg.SamplePush{}, true, 0},
		{"protocol traffic, all parts", full, msg.CpRst{}, true, msg.TCpRly},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New(established(core.Options{}), tc.cfg)
			out := n.Deliver(to(peerY, tc.msg), time.Second)
			got := n.Machine().Counters().ReceivedOf(tc.msg.Type()) == 1
			if got != tc.wantMachine {
				t.Errorf("machine saw the message = %v, want %v", got, tc.wantMachine)
			}
			if tc.wantReply == 0 {
				if len(out) != 0 {
					t.Errorf("unexpected reply %v", out)
				}
				return
			}
			if len(out) != 1 || out[0].Msg.Type() != tc.wantReply || out[0].To.ID != peerY.ID {
				t.Errorf("reply = %v, want one %v to %v", out, tc.wantReply, peerY.ID)
			}
		})
	}
}

// silence ticks n forward in 10ms steps, answering every direct probe
// of a live peer and nothing on behalf of dead, until stop reports true
// for a tick's output; it returns that output.
func silence(t *testing.T, n *Node, from time.Duration, dead id.ID, stop func([]msg.Envelope) bool) ([]msg.Envelope, time.Duration) {
	t.Helper()
	for now := from; now < from+10*time.Second; now += 10 * time.Millisecond {
		out := slices.Clone(n.Tick(now)) // the answers below are calls into n
		if stop(out) {
			return out, now
		}
		for _, env := range out {
			if pm, ok := env.Msg.(*msg.Ping); ok && pm.Target.IsZero() && env.To.ID != dead {
				n.Deliver(to(env.To, msg.Pong{Seq: pm.Seq}), now)
			}
		}
	}
	t.Fatal("condition never reached within 10s of virtual time")
	return nil, 0
}

func TestTrafficIsProofOfLife(t *testing.T) {
	n := New(established(core.Options{}), Config{Liveness: fastLiveness()})
	_, now := silence(t, n, 0, peerX.ID, func([]msg.Envelope) bool { return n.Prober().SuspectCount() == 1 })
	// Not a probe answer — ordinary protocol traffic from the suspect.
	n.Deliver(to(peerX, msg.InSysNoti{}), now)
	if got := n.Prober().SuspectCount(); got != 0 {
		t.Errorf("suspects after traffic from the suspect = %d, want 0", got)
	}
	if got := n.Stats().Liveness.Recovered; got != 1 {
		t.Errorf("Recovered = %d, want 1", got)
	}
}

func TestDeclarationGossipsInSameTick(t *testing.T) {
	n := New(established(core.Options{}), Config{Liveness: fastLiveness()})
	n.Tick(0)
	// X is seen alive once, so its later silence is a crash to declare,
	// not an unreachable peer to forget.
	n.Deliver(to(peerX, msg.InSysNoti{}), 0)
	out, _ := silence(t, n, 10*time.Millisecond, peerX.ID, func([]msg.Envelope) bool {
		return n.Stats().Liveness.Declared == 1
	})
	gossiped := map[id.ID]bool{}
	for _, env := range out {
		if fn, ok := env.Msg.(msg.FailedNoti); ok && fn.Failed.ID == peerX.ID {
			gossiped[env.To.ID] = true
		}
	}
	if !gossiped[peerY.ID] || !gossiped[peerZ.ID] {
		t.Errorf("declaring tick's output %v lacks FailedNoti(%v) to %v and %v", out, peerX.ID, peerY.ID, peerZ.ID)
	}
	if !n.Machine().KnowsFailed(peerX.ID) {
		t.Error("machine did not record the declared failure")
	}
}

func TestHostileSampleRepliesNeverReachSampler(t *testing.T) {
	ring := obs.NewRing(64)
	n := New(established(core.Options{}), Config{Sampling: &sampling.Config{}, Sink: ring})
	n.sampler.SeedPeers(peerY)
	n.Tick(0) // the first tick only staggers the round phase
	solicited := false
	for _, env := range n.Tick(time.Hour) {
		if _, ok := env.Msg.(msg.SamplePullReq); ok && env.To.ID == peerY.ID {
			solicited = true
		}
	}
	if !solicited {
		t.Fatal("the sampling round did not pull from its only peer")
	}
	ring.Drain()
	before := n.Stats().Sampling
	sampled := func(x id.ID) bool {
		for _, r := range n.sampler.Sample(64) {
			if r.ID == x {
				return true
			}
		}
		return false
	}

	var long []table.Ref
	for i := 0; len(long) <= msg.MaxSampleRefs; i++ {
		long = append(long, table.Ref{ID: id.MustParse(p43, fmt.Sprintf("%d%d%d", i/16%4, i/4%4, i%4)), Addr: "test://long"})
	}
	hostile := []msg.Envelope{
		{From: peerY, To: peerZ, Msg: msg.SamplePullRly{Refs: []table.Ref{peerX}}}, // misaddressed
		to(peerY, msg.SamplePullRly{Refs: long}),                                   // over-long
	}
	for _, env := range hostile {
		if out := n.Deliver(env, time.Hour); len(out) != 0 {
			t.Errorf("hostile reply answered with %v", out)
		}
		events := ring.Drain()
		if len(events) != 1 || events[0].Kind != obs.KindGuardReject || events[0].Peer != peerY.ID {
			t.Errorf("events = %+v, want one guard_reject naming %v", events, peerY.ID)
		}
	}
	if got := n.Stats().Sampling; got != before || sampled(peerX.ID) {
		t.Errorf("sampler state moved: %+v -> %+v, X sampled = %v", before, got, sampled(peerX.ID))
	}
	// The rejected replies did not consume the solicitation either: the
	// honest one is still accepted.
	n.Deliver(to(peerY, msg.SamplePullRly{Refs: []table.Ref{peerX}}), time.Hour)
	if !sampled(peerX.ID) {
		t.Error("the honest reply's reference never reached the samplers")
	}
}

func TestBareNodeAddsNoCopy(t *testing.T) {
	env := to(peerY, msg.CpRst{})
	m := established(core.Options{})
	direct := testing.AllocsPerRun(100, func() { m.Deliver(env) })
	n := New(established(core.Options{}), Config{})
	wrapped := testing.AllocsPerRun(100, func() { n.Deliver(env, 0) })
	if wrapped != direct {
		t.Errorf("bare Node.Deliver allocates %v per call, Machine.Deliver %v", wrapped, direct)
	}
}

// A join whose first request is lost must be resent by Tick alone: no
// failure detector, no other part, only core.Timeouts.
func TestTickResendsWithoutAnyPart(t *testing.T) {
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 100 * time.Millisecond}}
	cfg := Config{}
	if got := cfg.TickEvery(opts.Timeouts); got != 100*time.Millisecond {
		t.Fatalf("TickEvery = %v, want RetryAfter", got)
	}
	if got := cfg.TickEvery(core.Timeouts{}); got != 0 {
		t.Fatalf("TickEvery with nothing clock-driven = %v, want 0", got)
	}
	zero := Config{Liveness: &liveness.Config{}, AntiEntropy: &antientropy.Config{}, Sampling: &sampling.Config{}}
	if got, want := zero.TickEvery(core.Timeouts{}), (liveness.Config{}).WithDefaults().ProbeInterval; got != want {
		t.Fatalf("TickEvery with every part at its defaults = %v, want the probe interval %v", got, want)
	}
	n := New(core.NewJoiner(p43, self, opts), cfg)
	n.Advance(0)
	sent, err := n.Machine().StartJoin(peerY)
	if err != nil || len(sent) != 1 {
		t.Fatalf("StartJoin = %v, %v", sent, err)
	}
	if out := n.Tick(50 * time.Millisecond); len(out) != 0 {
		t.Errorf("resent before RetryAfter: %v", out)
	}
	out := n.Tick(150 * time.Millisecond)
	if len(out) != 1 || out[0].Msg.Type() != msg.TCpRst || out[0].To.ID != peerY.ID {
		t.Errorf("Tick past RetryAfter = %v, want the CpRst resent to %v", out, peerY.ID)
	}
}
