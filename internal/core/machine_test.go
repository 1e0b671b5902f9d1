package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
)

// pump is a minimal synchronous scheduler for machine tests: a queue of
// in-flight envelopes delivered one at a time. Delivery order is FIFO or,
// with a non-nil rng, random — emulating arbitrary network interleavings.
type pump struct {
	t        *testing.T
	params   id.Params
	machines map[id.ID]*core.Machine
	queue    []msg.Envelope
	rng      *rand.Rand
	steps    int
}

func newPump(t *testing.T, p id.Params, rng *rand.Rand) *pump {
	t.Helper()
	return &pump{t: t, params: p, machines: make(map[id.ID]*core.Machine), rng: rng}
}

// must unwraps an entry point's (envelopes, error) pair; tests that
// exercise legal transitions treat an error as fatal.
func must(envs []msg.Envelope, err error) []msg.Envelope {
	if err != nil {
		panic(err)
	}
	return envs
}

func (pp *pump) add(m *core.Machine) {
	pp.machines[m.Self().ID] = m
}

func (pp *pump) enqueue(envs []msg.Envelope) {
	pp.queue = append(pp.queue, envs...)
}

// run delivers messages until quiescence, failing the test on runaway.
func (pp *pump) run() {
	pp.t.Helper()
	const maxSteps = 5_000_000
	for len(pp.queue) > 0 {
		pp.steps++
		if pp.steps > maxSteps {
			pp.t.Fatalf("pump did not quiesce after %d deliveries", maxSteps)
		}
		i := 0
		if pp.rng != nil {
			i = pp.rng.Intn(len(pp.queue))
		}
		env := pp.queue[i]
		pp.queue[i] = pp.queue[len(pp.queue)-1]
		pp.queue = pp.queue[:len(pp.queue)-1]
		m, ok := pp.machines[env.To.ID]
		if !ok {
			pp.t.Fatalf("envelope to unknown node %v: %v", env.To.ID, env)
		}
		pp.enqueue(m.Deliver(env))
	}
}

func (pp *pump) tables() map[id.ID]*table.Table {
	out := make(map[id.ID]*table.Table, len(pp.machines))
	for x, m := range pp.machines {
		out[x] = m.Table()
	}
	return out
}

func (pp *pump) requireConsistent() {
	pp.t.Helper()
	if v := netcheck.CheckConsistency(pp.params, pp.tables()); len(v) > 0 {
		for i, violation := range v {
			if i >= 10 {
				pp.t.Errorf("... and %d more violations", len(v)-i)
				break
			}
			pp.t.Errorf("consistency: %v", violation)
		}
		pp.t.FailNow()
	}
	if v := netcheck.AllStatesS(pp.params, pp.tables()); len(v) > 0 {
		for _, violation := range v {
			pp.t.Errorf("state: %v", violation)
		}
		pp.t.FailNow()
	}
	if bad := netcheck.CheckAllPairsReachability(pp.params, pp.tables()); len(bad) > 0 {
		pp.t.Fatalf("%d unreachable pairs, first %v -> %v", len(bad), bad[0][0], bad[0][1])
	}
}

func (pp *pump) requireAllSNodes() {
	pp.t.Helper()
	for x, m := range pp.machines {
		if !m.IsSNode() {
			pp.t.Errorf("node %v stuck in status %v", x, m.Status())
		}
	}
	if pp.t.Failed() {
		pp.t.FailNow()
	}
}

func ref(p id.Params, s string) table.Ref {
	return table.Ref{ID: id.MustParse(p, s), Addr: "sim://" + s}
}

// joinAll makes every node in W join concurrently (all StartJoin calls
// enqueued before any delivery) and runs to quiescence.
func joinAll(pp *pump, bootstrap table.Ref, joiners []*core.Machine) {
	for _, j := range joiners {
		pp.add(j)
	}
	for _, j := range joiners {
		pp.enqueue(must(j.StartJoin(bootstrap)))
	}
	pp.run()
}

func TestStatusString(t *testing.T) {
	want := map[core.Status]string{
		core.StatusCopying:   "copying",
		core.StatusWaiting:   "waiting",
		core.StatusNotifying: "notifying",
		core.StatusInSystem:  "in_system",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", s, got, name)
		}
	}
}

func TestSeedMachineIsConsistentAlone(t *testing.T) {
	p := id.Params{B: 4, D: 5}
	seed := core.NewSeed(p, ref(p, "21233"), core.Options{})
	if !seed.IsSNode() {
		t.Fatal("seed is not an S-node")
	}
	tables := map[id.ID]*table.Table{seed.Self().ID: seed.Table()}
	if v := netcheck.CheckConsistency(p, tables); len(v) > 0 {
		t.Fatalf("singleton network inconsistent: %v", v[0])
	}
	// Diagonal entries must hold the seed itself with state S.
	for i := 0; i < p.D; i++ {
		e := seed.Table().Get(i, seed.Self().ID.Digit(i))
		if e.ID != seed.Self().ID || e.State != table.StateS {
			t.Errorf("diagonal (%d) = %+v", i, e)
		}
	}
}

func TestSingleJoin(t *testing.T) {
	p := id.Params{B: 4, D: 5}
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "21233"), core.Options{})
	pp.add(seed)
	joiner := core.NewJoiner(p, ref(p, "03231"), core.Options{})
	joinAll(pp, seed.Self(), []*core.Machine{joiner})

	pp.requireAllSNodes()
	pp.requireConsistent()

	// Lemma 5.1: the two nodes reach each other.
	if _, ok := core.Route(core.TableMap(pp.tables()), seed.Self().ID, joiner.Self().ID, p); !ok {
		t.Error("seed cannot reach joiner")
	}
	if _, ok := core.Route(core.TableMap(pp.tables()), joiner.Self().ID, seed.Self().ID, p); !ok {
		t.Error("joiner cannot reach seed")
	}
}

func TestSingleJoinSharedSuffix(t *testing.T) {
	// Bootstrap shares digits with the joiner, exercising the multi-level
	// local copy path (same guide serves several levels).
	p := id.Params{B: 4, D: 5}
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "21233"), core.Options{})
	pp.add(seed)
	joiner := core.NewJoiner(p, ref(p, "01233"), core.Options{}) // csuf = 4
	joinAll(pp, seed.Self(), []*core.Machine{joiner})
	pp.requireAllSNodes()
	pp.requireConsistent()
	// The joiner needed only one table copy: every level is served by the
	// seed, so exactly one CpRst should have been sent.
	if got := joiner.Counters().SentOf(msg.TCpRst); got != 1 {
		t.Errorf("joiner sent %d CpRst, want 1", got)
	}
}

func TestSequentialJoins(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, nil)
	rng := rand.New(rand.NewSource(11))
	seed := core.NewSeed(p, table.Ref{ID: id.Random(p, rng), Addr: "sim://seed"}, core.Options{})
	pp.add(seed)

	seen := map[id.ID]bool{seed.Self().ID: true}
	var members []table.Ref
	members = append(members, seed.Self())
	for n := 0; n < 40; n++ {
		x := id.Random(p, rng)
		for seen[x] {
			x = id.Random(p, rng)
		}
		seen[x] = true
		j := core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{})
		pp.add(j)
		// Bootstrap from a random established member (Lemma 5.2 setting).
		g0 := members[rng.Intn(len(members))]
		pp.enqueue(must(j.StartJoin(g0)))
		pp.run() // quiesce before next join: sequential joins
		if !j.IsSNode() {
			t.Fatalf("sequential joiner %v stuck in %v", x, j.Status())
		}
		pp.requireConsistent() // consistency holds after every single join
		members = append(members, j.Self())
	}
}

func TestConcurrentJoinsDeterministicOrder(t *testing.T) {
	testConcurrentJoins(t, nil, 30, 20)
}

func TestConcurrentJoinsRandomOrders(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			testConcurrentJoins(t, rand.New(rand.NewSource(seed)), 20, 30)
		})
	}
}

func testConcurrentJoins(t *testing.T, order *rand.Rand, nExisting, nJoin int) {
	t.Helper()
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, order)
	rng := rand.New(rand.NewSource(4242))

	// Build the initial consistent network by sequential joins.
	seed := core.NewSeed(p, table.Ref{ID: id.Random(p, rng), Addr: "sim://seed"}, core.Options{})
	pp.add(seed)
	seen := map[id.ID]bool{seed.Self().ID: true}
	members := []table.Ref{seed.Self()}
	for len(members) < nExisting {
		x := id.Random(p, rng)
		if seen[x] {
			continue
		}
		seen[x] = true
		j := core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{})
		pp.add(j)
		pp.enqueue(must(j.StartJoin(members[rng.Intn(len(members))])))
		pp.run()
		members = append(members, j.Self())
	}
	pp.requireConsistent()

	// Now nJoin nodes join concurrently, bootstrapping from random
	// established members. This is the hard case: dependent concurrent
	// joins (Lemma 5.4 / Theorem 1).
	var joiners []*core.Machine
	for len(joiners) < nJoin {
		x := id.Random(p, rng)
		if seen[x] {
			continue
		}
		seen[x] = true
		joiners = append(joiners, core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{}))
	}
	for _, j := range joiners {
		pp.add(j)
	}
	for _, j := range joiners {
		pp.enqueue(must(j.StartJoin(members[rng.Intn(len(members))])))
	}
	pp.run()

	pp.requireAllSNodes()
	pp.requireConsistent()

	// Theorem 3: per joiner, #CpRst + #JoinWait <= d+1.
	for _, j := range joiners {
		c := j.Counters()
		if got := c.SentOf(msg.TCpRst) + c.SentOf(msg.TJoinWait); got > p.D+1 {
			t.Errorf("joiner %v sent %d CpRst+JoinWait, bound is %d", j.Self().ID, got, p.D+1)
		}
	}
}

func TestPaperSection3Example(t *testing.T) {
	// §3.3 example: b=8, d=5, V = {72430,10353,62332,13141,31701},
	// W = {10261, 47051, 00261} join concurrently. 10261 and 00261 have
	// noti-set V_1 (dependent joins); the C-set tree of Figure 2 forms.
	p := id.Params{B: 8, D: 5}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("interleaving%d", seed), func(t *testing.T) {
			var order *rand.Rand
			if seed > 0 {
				order = rand.New(rand.NewSource(seed))
			}
			pp := newPump(t, p, order)

			vIDs := []string{"72430", "10353", "62332", "13141", "31701"}
			first := core.NewSeed(p, ref(p, vIDs[0]), core.Options{})
			pp.add(first)
			members := []table.Ref{first.Self()}
			for _, s := range vIDs[1:] {
				j := core.NewJoiner(p, ref(p, s), core.Options{})
				pp.add(j)
				pp.enqueue(must(j.StartJoin(members[len(members)-1])))
				pp.run()
				members = append(members, j.Self())
			}
			pp.requireConsistent()

			var joiners []*core.Machine
			for _, s := range []string{"10261", "47051", "00261"} {
				joiners = append(joiners, core.NewJoiner(p, ref(p, s), core.Options{}))
			}
			for i, j := range joiners {
				pp.add(j)
				_ = i
			}
			for i, j := range joiners {
				pp.enqueue(must(j.StartJoin(members[i%len(members)])))
			}
			pp.run()
			pp.requireAllSNodes()
			pp.requireConsistent()

			// Goal 2 explicitly: joining nodes reach each other.
			tables := pp.tables()
			for _, a := range joiners {
				for _, b := range joiners {
					if a == b {
						continue
					}
					if _, ok := core.Route(core.TableMap(tables), a.Self().ID, b.Self().ID, p); !ok {
						t.Errorf("%v cannot reach %v", a.Self().ID, b.Self().ID)
					}
				}
			}
		})
	}
}

func TestDependentConcurrentJoinsSameSuffix(t *testing.T) {
	// Two joiners believing they are the only node with suffix 261 — the
	// exact conflict scenario of §3.3. Under every interleaving, their
	// views must converge.
	p := id.Params{B: 8, D: 5}
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("interleaving%d", seed), func(t *testing.T) {
			var order *rand.Rand
			if seed > 0 {
				order = rand.New(rand.NewSource(seed))
			}
			pp := newPump(t, p, order)
			seedNode := core.NewSeed(p, ref(p, "13141"), core.Options{})
			pp.add(seedNode)
			a := core.NewJoiner(p, ref(p, "10261"), core.Options{})
			b := core.NewJoiner(p, ref(p, "00261"), core.Options{})
			joinAll(pp, seedNode.Self(), []*core.Machine{a, b})
			pp.requireAllSNodes()
			pp.requireConsistent()
		})
	}
}

func TestJoinWaitDeferredByTNode(t *testing.T) {
	// A joiner whose JoinWait lands on a still-joining node must be held
	// in Qj and answered when that node switches to S-node. We force the
	// scenario by delivering the second joiner's messages only after the
	// first has been stored (same noti-set, staged delivery).
	p := id.Params{B: 8, D: 5}
	pp := newPump(t, p, nil)
	seedNode := core.NewSeed(p, ref(p, "13141"), core.Options{})
	pp.add(seedNode)

	a := core.NewJoiner(p, ref(p, "10261"), core.Options{})
	b := core.NewJoiner(p, ref(p, "00261"), core.Options{})
	pp.add(a)
	pp.add(b)

	// Drive a to the point where it has been stored by the seed but is
	// still notifying (not yet S): deliver a's messages until it leaves
	// waiting.
	pp.enqueue(must(a.StartJoin(seedNode.Self())))
	for len(pp.queue) > 0 && a.Status() != core.StatusInSystem {
		env := pp.queue[0]
		pp.queue = pp.queue[1:]
		pp.enqueue(pp.machines[env.To.ID].Deliver(env))
	}
	pp.run()
	if !a.IsSNode() {
		t.Fatalf("a stuck in %v", a.Status())
	}

	// Now b joins; its JoinWait chain ends at a (negative from seed).
	pp.enqueue(must(b.StartJoin(seedNode.Self())))
	pp.run()
	pp.requireAllSNodes()
	pp.requireConsistent()
}

func TestNetworkInitializationFromSingleNode(t *testing.T) {
	// §6.1: initialize an n-node network by having n-1 nodes join a
	// 1-node network concurrently, all bootstrapping from the seed.
	p := id.Params{B: 4, D: 4}
	for _, n := range []int{2, 5, 17} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			pp := newPump(t, p, rand.New(rand.NewSource(int64(n)*7+1)))
			seed := core.NewSeed(p, table.Ref{ID: id.Random(p, rng), Addr: "sim://seed"}, core.Options{})
			pp.add(seed)
			seen := map[id.ID]bool{seed.Self().ID: true}
			var joiners []*core.Machine
			for len(joiners) < n-1 {
				x := id.Random(p, rng)
				if seen[x] {
					continue
				}
				seen[x] = true
				joiners = append(joiners, core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{}))
			}
			joinAll(pp, seed.Self(), joiners)
			pp.requireAllSNodes()
			pp.requireConsistent()
		})
	}
}

func TestJoinStateReturnsToZero(t *testing.T) {
	// The paper's design goal: only joining nodes carry join state, and
	// after the join completes, no node retains any.
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, rand.New(rand.NewSource(3)))
	rng := rand.New(rand.NewSource(9))
	seed := core.NewSeed(p, table.Ref{ID: id.Random(p, rng), Addr: "sim://s"}, core.Options{})
	pp.add(seed)
	seen := map[id.ID]bool{seed.Self().ID: true}
	var joiners []*core.Machine
	for len(joiners) < 15 {
		x := id.Random(p, rng)
		if seen[x] {
			continue
		}
		seen[x] = true
		joiners = append(joiners, core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{}))
	}
	joinAll(pp, seed.Self(), joiners)
	pp.requireAllSNodes()
	if got := seed.JoinStateSize(); got != 0 {
		t.Errorf("established node retains join state %d", got)
	}
	for _, j := range joiners {
		// Qn/Qsn are append-only logs of who was notified during the
		// node's own join; Qr, Qsr and Qj must drain to zero.
		if j.Status() != core.StatusInSystem {
			t.Errorf("joiner %v not in system", j.Self().ID)
		}
	}
}

func TestOptionsReduceMessageBytes(t *testing.T) {
	// §6.2: with ReduceLevels+BitVector the big-message byte volume of a
	// join wave must not grow, and the network must stay consistent.
	p := id.Params{B: 8, D: 6}
	run := func(opts core.Options) (int, *pump) {
		rng := rand.New(rand.NewSource(77))
		pp := newPump(t, p, rand.New(rand.NewSource(78)))
		seed := core.NewSeed(p, table.Ref{ID: id.Random(p, rng), Addr: "sim://s"}, opts)
		pp.add(seed)
		seen := map[id.ID]bool{seed.Self().ID: true}
		var joiners []*core.Machine
		for len(joiners) < 25 {
			x := id.Random(p, rng)
			if seen[x] {
				continue
			}
			seen[x] = true
			joiners = append(joiners, core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, opts))
		}
		joinAll(pp, seed.Self(), joiners)
		pp.requireAllSNodes()
		pp.requireConsistent()
		total := 0
		for _, m := range pp.machines {
			total += m.Counters().BytesSent
		}
		return total, pp
	}
	plain, _ := run(core.Options{})
	reduced, _ := run(core.Options{ReduceLevels: true, BitVector: true})
	if reduced > plain {
		t.Errorf("§6.2 reductions grew traffic: %d > %d bytes", reduced, plain)
	}
}

func TestStartJoinErrors(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	j := core.NewJoiner(p, ref(p, "0123"), core.Options{})
	if _, err := j.StartJoin(ref(p, "0123")); err == nil {
		t.Error("StartJoin with self bootstrap did not error")
	}
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	if _, err := seed.StartJoin(ref(p, "0123")); err == nil {
		t.Error("StartJoin on in_system node did not error")
	}
	// A failed entry point must not have mutated the machine: the joiner
	// can still join normally afterwards.
	pp := newPump(t, p, nil)
	pp.add(seed)
	pp.add(j)
	pp.enqueue(must(j.StartJoin(seed.Self())))
	pp.run()
	pp.requireAllSNodes()
	pp.requireConsistent()
}

func TestDeliverWrongRecipientRejected(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	out := seed.Deliver(msg.Envelope{From: ref(p, "0123"), To: ref(p, "1111"), Msg: msg.JoinWait{}})
	if len(out) != 0 {
		t.Errorf("misaddressed envelope produced %d messages, want 0", len(out))
	}
	if got := seed.GuardStats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	if got := seed.Counters().RejectedOf(msg.TJoinWait); got != 1 {
		t.Errorf("RejectedOf(JoinWait) = %d, want 1", got)
	}
}

// Property-style sweep: many small random networks, arbitrary concurrent
// join waves and delivery orders — Theorems 1 and 2 must hold in all.
func TestQuickConcurrentJoinConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	p := id.Params{B: 4, D: 3} // tiny space (64 IDs) maximizes contention
	for trial := 0; trial < 60; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*131 + 7))
			pp := newPump(t, p, rand.New(rand.NewSource(int64(trial)*977+3)))
			seed := core.NewSeed(p, table.Ref{ID: id.Random(p, rng), Addr: "sim://s"}, core.Options{})
			pp.add(seed)
			seen := map[id.ID]bool{seed.Self().ID: true}
			members := []table.Ref{seed.Self()}
			// Random-size initial network built sequentially.
			for n := rng.Intn(10); n > 0; n-- {
				x := id.Random(p, rng)
				if seen[x] {
					continue
				}
				seen[x] = true
				j := core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{})
				pp.add(j)
				pp.enqueue(must(j.StartJoin(members[rng.Intn(len(members))])))
				pp.run()
				members = append(members, j.Self())
			}
			// Random-size concurrent wave.
			var joiners []*core.Machine
			for n := 1 + rng.Intn(12); n > 0; n-- {
				x := id.Random(p, rng)
				if seen[x] {
					continue
				}
				seen[x] = true
				joiners = append(joiners, core.NewJoiner(p, table.Ref{ID: x, Addr: "sim://" + x.String()}, core.Options{}))
			}
			for _, j := range joiners {
				pp.add(j)
			}
			for _, j := range joiners {
				pp.enqueue(must(j.StartJoin(members[rng.Intn(len(members))])))
			}
			pp.run()
			pp.requireAllSNodes()
			pp.requireConsistent()
		})
	}
}

func TestMachineAccessors(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	pp := newPump(t, p, nil)
	seed := core.NewSeed(p, ref(p, "3210"), core.Options{})
	pp.add(seed)
	j := core.NewJoiner(p, ref(p, "0123"), core.Options{})
	joinAll(pp, seed.Self(), []*core.Machine{j})

	if j.Params() != p {
		t.Errorf("Params = %+v", j.Params())
	}
	if j.NotiLevel() != 0 {
		// csuf(3210, 0123) = 0, so the joiner notified at level 0.
		t.Errorf("NotiLevel = %d", j.NotiLevel())
	}
	snap := j.Snapshot()
	if snap.Owner() != j.Self().ID || snap.FilledCount() == 0 {
		t.Error("Snapshot empty or mis-owned")
	}
	// The seed stored the joiner, so the joiner's reverse set has the seed.
	found := false
	for _, r := range j.ReverseNeighbors() {
		if r.ID == seed.Self().ID {
			found = true
		}
	}
	if !found {
		t.Error("joiner's reverse set lacks the seed")
	}
}
