package core_test

import (
	"maps"
	"slices"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

func timeoutOpts() core.Options {
	return core.Options{Timeouts: core.Timeouts{
		RetryAfter:  100 * time.Millisecond,
		MaxAttempts: 2,
	}}
}

func TestExchangeResendOnTimeout(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 100 * time.Millisecond, MaxAttempts: 4}}
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	j := core.NewJoiner(p, ref(p, "0123"), opts)

	out := must(j.StartJoin(seed.Self()))
	if len(out) != 1 || out[0].Msg.Type() != msg.TCpRst {
		t.Fatalf("StartJoin sent %v", out)
	}
	// The CpRst is lost; nothing happens before the timeout...
	if extra := j.Tick(50 * time.Millisecond); len(extra) != 0 {
		t.Fatalf("premature resend: %v", extra)
	}
	// ...then the machine resends the identical request.
	resent := j.Tick(150 * time.Millisecond)
	if len(resent) != 1 || resent[0].Msg.Type() != msg.TCpRst || resent[0].To.ID != seed.Self().ID {
		t.Fatalf("timeout resent %v, want CpRst to seed", resent)
	}
	if got := j.Counters().SentOf(msg.TCpRst); got != 2 {
		t.Fatalf("CpRst sent %d times, want 2", got)
	}

	// This copy arrives; the reply settles the exchange and the join runs
	// to completion, after which the clock finds nothing left to resend.
	pp := newPump(t, p, nil)
	pp.add(seed)
	pp.add(j)
	pp.enqueue(resent)
	pp.run()
	if !j.IsSNode() {
		t.Fatalf("joiner stuck in %v", j.Status())
	}
	if late := j.Tick(time.Hour); len(late) != 0 {
		t.Fatalf("quiescent machine resent %v", late)
	}
}

// TestResendDueCountsFromSend: an exchange's first resend is due
// RetryAfter after the request left, not after the Tick before it. A
// CpRst sent at 90 ms with RetryAfter 100 ms is not resent by the Tick
// at 100 ms, 10 ms after it left, but by the first Tick at or past 190 ms.
func TestResendDueCountsFromSend(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := core.Options{Timeouts: core.Timeouts{RetryAfter: 100 * time.Millisecond, MaxAttempts: 4}}
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	j.Tick(0)

	j.Advance(90 * time.Millisecond)
	must(j.StartJoin(seed.Self())) // lost
	for _, at := range []time.Duration{100, 150, 180} {
		now := at * time.Millisecond
		if out := j.Tick(now); len(out) != 0 {
			t.Fatalf("Tick at %v resent %v; the CpRst left at 90ms", now, out)
		}
	}
	if out := j.Tick(190 * time.Millisecond); len(out) != 1 || out[0].Msg.Type() != msg.TCpRst {
		t.Fatalf("Tick at 190ms sent %v, want the CpRst resent", out)
	}
}

func TestJoinRestartRotatesGateway(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := timeoutOpts()
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

	// The joiner boots through the seed, with b registered as fallback —
	// but the seed has silently crashed: every message to it is dropped.
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	j.AddGateways(b.Self())
	must(j.StartJoin(seed.Self())) // lost
	if out := j.Tick(100 * time.Millisecond); len(out) != 1 || out[0].To.ID != seed.Self().ID {
		t.Fatalf("first timeout should retry the seed, got %v", out)
	}
	// Attempt cap reached: the join restarts through the fallback gateway.
	out := j.Tick(time.Second)
	if len(out) != 1 || out[0].Msg.Type() != msg.TCpRst {
		t.Fatalf("give-up produced %v, want a fresh CpRst", out)
	}
	if out[0].To.ID != b.Self().ID {
		t.Fatalf("restart went to %v, want fallback %v", out[0].To.ID, b.Self().ID)
	}
	if j.Status() != core.StatusCopying {
		t.Fatalf("status after restart: %v", j.Status())
	}

	// Through the live gateway the join completes. The copied tables
	// reference the crashed seed, so the joiner will talk to it too; keep
	// dropping that traffic and let the clock retry around it.
	pp.add(j)
	deadID := seed.Self().ID
	delete(pp.machines, deadID)
	pp.enqueue(out)
	for now := 2 * time.Second; now < 60*time.Second && !j.IsSNode(); now += 100 * time.Millisecond {
		// Drain deliverable traffic by hand, dropping envelopes to the dead
		// seed (the pump would panic on an unknown recipient).
		for len(pp.queue) > 0 {
			env := pp.queue[0]
			pp.queue = pp.queue[1:]
			if env.To.ID == deadID {
				continue
			}
			pp.enqueue(pp.machines[env.To.ID].Deliver(env))
		}
		pp.enqueue(j.Tick(now))
	}
	if !j.IsSNode() {
		t.Fatalf("joiner never recovered from gateway crash, stuck in %v", j.Status())
	}
}

// TestJoinRestartSkipsQuarantinedGateway: a fallback gateway that earned
// itself a guard quarantine must not be chosen when the join restarts —
// a hostile node cannot spam its way into becoming the rescue gateway.
func TestJoinRestartSkipsQuarantinedGateway(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := timeoutOpts()
	opts.Guard = &guard.Policy{}
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	seedRef := ref(p, "3210")
	badGw := ref(p, "2101")
	goodGw := ref(p, "1032")
	j.AddGateways(badGw, goodGw)
	must(j.StartJoin(seedRef)) // lost: the seed has silently crashed

	// The hostile fallback hammers the joiner with malformed requests and
	// is quarantined before the join times out.
	quarantine(t, j, msg.Envelope{From: badGw, To: j.Self(), Msg: msg.CpRst{Level: 99}})

	if out := j.Tick(100 * time.Millisecond); len(out) != 1 || out[0].To.ID != seedRef.ID {
		t.Fatalf("first timeout should retry the seed, got %v", out)
	}
	out := j.Tick(time.Second) // attempt cap: restart through a fallback
	if len(out) != 1 || out[0].Msg.Type() != msg.TCpRst {
		t.Fatalf("give-up produced %v, want a fresh CpRst", out)
	}
	if out[0].To.ID == badGw.ID {
		t.Fatal("restart chose the quarantined gateway")
	}
	if out[0].To.ID != goodGw.ID {
		t.Fatalf("restart went to %v, want the clean fallback %v", out[0].To.ID, goodGw.ID)
	}
}

// TestJoinRestartFallsBackToSampledPeers: when every static gateway is
// gone, pickGateway consults the peer-sampling layer — and never selects
// the joiner's own ref even if the sampler hands it back.
func TestJoinRestartFallsBackToSampledPeers(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	self := ref(p, "0123")
	seedRef := ref(p, "3210")
	sampledPeer := ref(p, "1032")
	j := core.NewJoiner(p, self, timeoutOpts())
	j.SetPeerSampler(func(int) []table.Ref {
		// A sloppy (or hostile) sampler can echo the node's own ref back.
		return []table.Ref{self, sampledPeer}
	})
	must(j.StartJoin(seedRef))

	// The failure detector declares the bootstrap dead mid-copy: the only
	// static gateway is now off the candidate list, so the restart must
	// come from the sample.
	out := j.DeclareFailed(seedRef)
	var rst []msg.Envelope
	for _, env := range out {
		if env.Msg.Type() == msg.TCpRst {
			rst = append(rst, env)
		}
	}
	if len(rst) != 1 {
		t.Fatalf("declaration produced %d CpRsts, want 1 restart: %v", len(rst), out)
	}
	if rst[0].To.ID == self.ID {
		t.Fatal("restart addressed the joiner itself")
	}
	if rst[0].To.ID != sampledPeer.ID {
		t.Fatalf("restart went to %v, want sampled peer %v", rst[0].To.ID, sampledPeer.ID)
	}
	if j.Status() != core.StatusCopying {
		t.Fatalf("status after sampled restart: %v", j.Status())
	}
}

// TestPickGatewayNeverReturnsSelf: a sampler that only knows the node's
// own ref yields no candidates; the restart falls back to retrying the
// unresponsive gateway rather than the node addressing itself.
func TestPickGatewayNeverReturnsSelf(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	self := ref(p, "0123")
	seedRef := ref(p, "3210")
	j := core.NewJoiner(p, self, timeoutOpts())
	j.SetPeerSampler(func(int) []table.Ref { return []table.Ref{self} })
	must(j.StartJoin(seedRef)) // lost
	j.Tick(100 * time.Millisecond)
	out := j.Tick(time.Second) // give-up: restart
	for _, env := range out {
		if env.To.ID == self.ID {
			t.Fatalf("machine sent %v to itself", env.Msg.Type())
		}
	}
	if len(out) != 1 || out[0].To.ID != seedRef.ID {
		t.Fatalf("restart with no candidates sent %v, want a retry of the seed", out)
	}
}

// crashNeighbourhood builds a sparse network and sorts the survivors by
// their relation to the victim members[4]: holders store it in their
// table, stored nodes are stored by it (it is in their reverse set) but
// do not store it, strangers have neither relation.
func crashNeighbourhood(t *testing.T) (dead table.Ref, holders, stored, strangers []*core.Machine) {
	t.Helper()
	pp, members := buildSmallNetwork(t, id.Params{B: 4, D: 5}, 48, 9)
	dead = members[4]
	for _, ref := range members {
		if ref.ID == dead.ID {
			continue
		}
		m := pp.machines[ref.ID]
		switch {
		case holds(m, dead.ID):
			holders = append(holders, m)
		case slices.ContainsFunc(m.ReverseNeighbors(), func(r table.Ref) bool { return r.ID == dead.ID }):
			stored = append(stored, m)
		default:
			strangers = append(strangers, m)
		}
	}
	if len(holders) < 2 || len(stored) == 0 || len(strangers) < 2 {
		t.Fatalf("setup: %d holders, %d stored, %d strangers; want at least 2, 1, 2", len(holders), len(stored), len(strangers))
	}
	return dead, holders, stored, strangers
}

func holds(m *core.Machine, x id.ID) bool {
	held := false
	m.Table().ForEach(func(_, _ int, nb table.Neighbor) { held = held || nb.ID == x })
	return held
}

// gossipTargets is m's table ∪ reverse set, less m itself: whom a node
// that gossips a crash tells (less the victim).
func gossipTargets(m *core.Machine) map[id.ID]bool {
	out := make(map[id.ID]bool)
	m.Table().ForEach(func(_, _ int, nb table.Neighbor) { out[nb.ID] = true })
	for _, r := range m.ReverseNeighbors() {
		out[r.ID] = true
	}
	delete(out, m.Self().ID)
	return out
}

// notiTargets is whom out sends FailedNoti to.
func notiTargets(out []msg.Envelope) map[id.ID]bool {
	got := make(map[id.ID]bool)
	for _, env := range out {
		if env.Msg.Type() == msg.TFailedNoti {
			got[env.To.ID] = true
		}
	}
	return got
}

// wantGossip checks that out tells exactly before — the sender's
// gossipTargets taken before it noted the crash — less the victim.
func wantGossip(t *testing.T, who string, out []msg.Envelope, before map[id.ID]bool, dead id.ID) {
	t.Helper()
	delete(before, dead)
	if got := notiTargets(out); !maps.Equal(got, before) {
		t.Errorf("%s told %d nodes of the crash, want its %d live table and reverse-set members", who, len(got), len(before))
	}
}

// TestDeclareFailedGossipAndDedupe pins who spreads a crash: the
// declarer always, and a first-time receiver only if the victim was in
// its table or its reverse set — each to its own live table ∪ reverse
// set. Anyone else records the tombstone and stays silent.
// TestNotifierDropsSilentWaitTarget: a notifier that gets a negative
// JoinWaitRly sends JoinWaitMsg to the node it names. If that node never
// answers, giving up must drop it from the wait set, as for a silent
// notified node; a notifier left waiting on it has nothing to resend
// and never reaches in_system.
func TestNotifierDropsSilentWaitTarget(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	opts := timeoutOpts()
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "3210"), opts)
	pp.add(seed)
	for _, s := range []string{"1003", "2213"} {
		m := core.NewJoiner(p, ref(p, s), opts)
		pp.add(m)
		pp.enqueue(must(m.StartJoin(seed.Self())))
		pp.run()
	}
	j := core.NewJoiner(p, ref(p, "0123"), opts)
	pp.add(j)
	queue := must(j.StartJoin(seed.Self()))
	for len(queue) > 0 && j.Status() != core.StatusNotifying {
		env := queue[0]
		queue = append(queue[1:], pp.machines[env.To.ID].Deliver(env)...)
	}
	if j.Status() != core.StatusNotifying {
		t.Fatalf("joiner in %v, want notifying", j.Status())
	}
	// A negative reply names a node that never answers: it has crashed.
	silent := ref(p, "1113")
	rly := msg.JoinWaitRly{R: msg.Negative, U: silent, Table: seed.Snapshot()}
	queue = append(queue, j.Deliver(msg.Envelope{From: seed.Self(), To: j.Self(), Msg: rly})...)
	for _, env := range queue {
		if env.To.ID != silent.ID {
			pp.enqueue([]msg.Envelope{env})
		}
	}
	pp.run()
	if j.Status() != core.StatusNotifying {
		t.Fatalf("joiner in %v before the silent node timed out, want notifying", j.Status())
	}
	for now := time.Duration(0); now < time.Minute && !j.IsSNode(); now += 100 * time.Millisecond {
		j.Tick(now)
	}
	if !j.IsSNode() {
		t.Fatalf("notifier still %v a minute after its JoinWaitMsg went unanswered", j.Status())
	}
}

func TestDeclareFailedGossipAndDedupe(t *testing.T) {
	dead, holders, stored, strangers := crashNeighbourhood(t)
	declarer, holder := holders[0], holders[1]

	before := gossipTargets(declarer)
	out := declarer.DeclareFailed(dead)
	if !declarer.KnowsFailed(dead.ID) {
		t.Fatal("DeclareFailed did not record the failure")
	}
	if holds(declarer, dead.ID) {
		t.Error("dead node still in the declarer's table after DeclareFailed")
	}
	wantGossip(t, "the declarer", out, before, dead.ID)
	noti := func(to *core.Machine) msg.Envelope {
		return msg.Envelope{From: declarer.Self(), To: to.Self(), Msg: msg.FailedNoti{Failed: dead}}
	}

	// First hearing by a node that stored the victim: it forwards.
	before = gossipTargets(holder)
	wantGossip(t, "a holder hearing first", holder.Deliver(noti(holder)), before, dead.ID)
	if !holder.KnowsFailed(dead.ID) || holds(holder, dead.ID) {
		t.Error("a holder hearing the gossip did not record and drop the victim")
	}

	// A node the victim stored, though it does not store the victim, is
	// probing it too: it forwards as well.
	before = gossipTargets(stored[0])
	wantGossip(t, "a stored node hearing first", stored[0].Deliver(noti(stored[0])), before, dead.ID)

	// A node with neither relation records the tombstone, keeps its
	// table, and forwards nothing.
	stranger := strangers[0]
	tbl := stranger.Table().String()
	if got := notiTargets(stranger.Deliver(noti(stranger))); len(got) != 0 {
		t.Errorf("a stranger to the victim forwarded the crash to %d nodes", len(got))
	}
	if !stranger.KnowsFailed(dead.ID) {
		t.Error("a stranger to the victim did not record the failure")
	}
	if stranger.Table().String() != tbl {
		t.Error("a stranger to the victim changed its table")
	}

	// Second hearing is a no-op (the gossip converges instead of echoing).
	if got := notiTargets(holder.Deliver(noti(holder))); len(got) != 0 {
		t.Error("duplicate declaration re-gossiped")
	}

	// A declarer's own verdict is gossiped even if it no longer holds the
	// victim (its entry was replaced, or it only ever held it in reverse).
	before = gossipTargets(strangers[1])
	wantGossip(t, "a declarer not holding the victim", strangers[1].DeclareFailed(dead), before, dead.ID)
}

func TestTickIssuesRepairQueries(t *testing.T) {
	// A sparse space forces non-local repairs: after a declaration the
	// machine's own clock must issue Find queries for the emptied entries.
	p := id.Params{B: 16, D: 8}
	pp, members := buildSmallNetwork(t, p, 16, 11)
	dead := members[7]
	var withJobs *core.Machine
	for _, ref := range members {
		if ref.ID == dead.ID {
			continue
		}
		m := pp.machines[ref.ID]
		m.DeclareFailed(dead)
		if len(m.RepairsPending()) > 0 {
			withJobs = m
		}
	}
	if withJobs == nil {
		t.Skip("every repair resolved locally at this seed; nothing to drive")
	}
	out := withJobs.Tick(time.Second)
	finds := 0
	for _, env := range out {
		if env.Msg.Type() == msg.TFind {
			finds++
		}
	}
	if finds == 0 {
		t.Fatalf("Tick sent no Find for %d pending repairs", len(withJobs.RepairsPending()))
	}
}

// TestRejoinForgetsBootstrapGateways: the gateways a node joined
// through serve that join only. A member learns of a bootstrap's
// departure only if it also holds it in its table, so a rejoin started
// long after the join must pick its gateway from the table, never from
// a stale bootstrap list. The fallback below sorts before the member's
// one live neighbor, so the rotation would pick it first.
func TestRejoinForgetsBootstrapGateways(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	pp.add(seed)
	b := core.NewJoiner(p, ref(p, "2101"), core.Options{})
	pp.add(b)
	pp.enqueue(must(b.StartJoin(seed.Self())))
	pp.run()
	departed := ref(p, "1032") // a bootstrap that has since left, silently to j
	j := core.NewJoiner(p, ref(p, "0123"), core.Options{})
	j.AddGateways(departed)
	pp.add(j)
	pp.enqueue(must(j.StartJoin(seed.Self())))
	pp.run()
	if !j.IsSNode() || !b.IsSNode() {
		t.Fatalf("setup: joiners in %v and %v", b.Status(), j.Status())
	}

	// The seed, j's deepest neighbor, crashes: j is orphaned and
	// re-announces itself at its next tick.
	j.DeclareFailed(seed.Self())
	out := slices.DeleteFunc(j.Tick(time.Second), func(env msg.Envelope) bool { return env.Msg.Type() != msg.TCpRst })
	if len(out) != 1 {
		t.Fatalf("orphaned member sent %d CpRsts, want one", len(out))
	}
	if out[0].To.ID != b.Self().ID {
		t.Fatalf("rejoin went to %v, want the live neighbor %v", out[0].To.ID, b.Self().ID)
	}
}
