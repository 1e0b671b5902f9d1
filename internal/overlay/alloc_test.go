package overlay

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

func TestHashedUniformLatencyDoesNotAllocate(t *testing.T) {
	p := id.Params{B: 16, D: 40}
	refs := RandomRefs(p, 2, rand.New(rand.NewSource(1)), nil)
	latency := HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, -3)
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
// benchmark. Measured: 107 per join, all protocol payload (boxed
// messages, table snapshots, the machines' output copies); 1,255 when
// each message also paid for a latency key, a trace line, a suffix per
// validated entry, a closure and a boxed event. The budget is ~1.5x the
// former.
func TestJoinWaveAllocBudget(t *testing.T) {
	const n, m, budget = 256, 64, 160
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
	perJoin := float64(after.Mallocs-before.Mallocs) / m
	t.Logf("%.0f allocations per join", perJoin)
	if perJoin > budget {
		t.Errorf("%.0f allocations per join, budget %d", perJoin, budget)
	}
}
