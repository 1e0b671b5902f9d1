package overlay

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
)

func TestHashedUniformLatencyDoesNotAllocate(t *testing.T) {
	p := id.Params{B: 16, D: 40}
	refs := RandomRefs(p, 2, rand.New(rand.NewSource(1)), nil)
	latency := HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, -3).Between
	var sum time.Duration
	if got := testing.AllocsPerRun(100, func() { sum += latency(refs[0], refs[1]) }); got != 0 {
		t.Errorf("HashedUniformLatency allocates %v times per call, want 0", got)
	}
}

// TestTransmissionDoesNotAllocate sends one message through post, the
// event queue and arrive once the in-flight slab and the queue have
// grown: the simulated network itself must add no allocation to a
// message. The recipient has departed, so nothing past arrive runs.
func TestTransmissionDoesNotAllocate(t *testing.T) {
	p := id.Params{B: 16, D: 8}
	refs := RandomRefs(p, 2, rand.New(rand.NewSource(1)), nil)
	net := New(Config{Params: p, Latency: HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, 1)})
	net.removed[refs[1].ID] = true
	env := msg.Envelope{From: refs[0], To: refs[1], Msg: msg.InSysNoti{}}
	for i := 0; i < 64; i++ {
		net.post(env, 1)
	}
	net.Run()
	if got := testing.AllocsPerRun(100, func() {
		net.post(env, 1)
		net.engine.Step()
	}); got != 0 {
		t.Errorf("post + arrive allocates %v times per message, want 0", got)
	}
	if net.Dropped() == 0 || len(net.freeSlots) != len(net.inFlight) {
		t.Errorf("dropped %d, %d of %d slots free: messages did not all arrive",
			net.Dropped(), len(net.freeSlots), len(net.inFlight))
	}
}

// TestJoinWaveAllocBudget bounds the allocations of a join on the bare
// protocol (64 concurrent joins into 256 nodes, b=16, d=8), so that a
// per-message allocation coming back into the path post → queue →
// deliver → guard → handlers → send fails here rather than in the 20 s
// benchmark. Measured: 59 per join, all protocol payload (table-carrying
// and other boxed messages, table snapshots, the machines' output
// copies); 90 when each RvNghNoti was boxed anew and each reverse set
// was a map, 1,255 when each message also paid for a latency key, a
// trace line, a suffix per validated entry, a closure and a boxed event.
// The budget of 77 is ~1.3x the reading and fails the 90. It also bounds
// the bytes: 36.4 KiB per join with snapshots that hold only their
// filled entries, 75.6 KiB when each copied all d·b cells; the budget of
// 50 KiB fails the latter. `make allocs` prints both readings. The wave
// runs on at least two goroutines, so the budgets also bound what its
// delivery windows add (window.go): their buffers, reused from window to
// window, and the helper goroutines — 1 allocation and 1.5 KiB per join
// here (60 and 37.9 KiB), most of it the per-bucket arenas growing. With
// tables that hold only their filled entries it reads 60 and 34.5 KiB:
// a joiner's table grows in two or three steps instead of being
// allocated whole.
func TestJoinWaveAllocBudget(t *testing.T) {
	const n, m, budget, kibBudget = 256, 64, 77, 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	p := id.Params{B: 16, D: 8}
	rng := rand.New(rand.NewSource(5))
	taken := make(map[id.ID]bool, n+m)
	existing := RandomRefs(p, n, rng, taken)
	joiners := RandomRefs(p, m, rng, taken)
	net := New(Config{Params: p, Latency: HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, 5)})
	net.BuildDirect(existing, rng)
	gateways := make([]table.Ref, m)
	for i := range gateways {
		gateways[i] = existing[rng.Intn(n)]
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, j := range joiners {
		net.ScheduleJoin(j, gateways[i], 0)
	}
	net.Run()
	runtime.ReadMemStats(&after)

	if net.PendingJoins() != 0 {
		t.Fatalf("%d joins did not complete", net.PendingJoins())
	}
	if net.win.parallel == 0 {
		t.Fatal("no delivery window ran on helper goroutines")
	}
	perJoin := float64(after.Mallocs-before.Mallocs) / m
	kibPerJoin := float64(after.TotalAlloc-before.TotalAlloc) / m / 1024
	t.Logf("%.0f allocations and %.1f KiB per join", perJoin, kibPerJoin)
	if perJoin > budget {
		t.Errorf("%.0f allocations per join, budget %d", perJoin, budget)
	}
	if kibPerJoin > kibBudget {
		t.Errorf("%.1f KiB allocated per join, budget %d", kibPerJoin, kibBudget)
	}
}

// TestBuildDirectAllocs bounds the allocations of building a consistent
// network with global knowledge, and of checking it against Definition
// 3.8, per member (n=512, d=8). The builder reads a suffix index and
// the checker a digit mask per suffix, so neither pays per table entry:
// b=16 must cost about what b=4 does. Measured: 16.4 and 17.0 per
// member to build (16.3 and 15.2 when a table allocated all d·b entries
// at once, 18.2 and 15.6 when each reverse set was a map), 155.2 and
// 55.3 when each entry built its suffix; under 0.1 per member to check,
// d·b when it did.
//
// It also bounds what a built network keeps: the live heap per member
// after a collection, at b=16 with d=8 and with d=40. A table holds only
// its filled entries, about b·log_b n of the d·b, so the longer IDs cost
// little: measured 5.6 and 7.4 KiB, 9.0 and 30.6 when each table held
// all d·b entries; the budgets of 7.5 and 10 KiB fail the latter. `make
// allocs` prints the b=16 build reading and both live readings.
func TestBuildDirectAllocs(t *testing.T) {
	const n = 512
	perMember := func(b int) (build, check float64) {
		p := id.Params{B: b, D: 8}
		members := RandomRefs(p, n, rand.New(rand.NewSource(3)), nil)
		var tables map[id.ID]*table.Table
		build = testing.AllocsPerRun(3, func() {
			net := New(Config{Params: p})
			net.BuildDirect(members, rand.New(rand.NewSource(4)))
			tables = net.Tables()
		}) / n
		check = testing.AllocsPerRun(3, func() {
			if v := netcheck.CheckConsistency(p, tables); len(v) != 0 {
				t.Fatalf("b=%d: built network inconsistent: %v", b, v[0])
			}
		}) / n
		t.Logf("b=%d: %.1f allocations per member to build, %.2f to check", b, build, check)
		return build, check
	}
	build4, _ := perMember(4)
	build16, check16 := perMember(16)
	if build16 > 25 {
		t.Errorf("BuildDirect: %.1f allocations per member, budget 25", build16)
	}
	if build16-build4 >= 5 {
		t.Errorf("BuildDirect: %.1f allocations per member at b=16 against %.1f at b=4: an entry allocates", build16, build4)
	}
	if check16 > 1 {
		t.Errorf("CheckConsistency: %.2f allocations per member, budget 1", check16)
	}

	for _, c := range []struct {
		d      int
		budget float64
	}{{8, 7.5}, {40, 10}} {
		p := id.Params{B: 16, D: c.d}
		members := RandomRefs(p, n, rand.New(rand.NewSource(3)), nil)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		net := New(Config{Params: p})
		net.BuildDirect(members, rand.New(rand.NewSource(4)))
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(net)
		kib := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n / 1024
		t.Logf("b=16 d=%d: %.1f KiB live per member built", c.d, kib)
		if kib > c.budget {
			t.Errorf("BuildDirect at d=%d: %.1f KiB live per member, budget %.1f", c.d, kib, c.budget)
		}
	}
}
