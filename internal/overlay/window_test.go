package overlay

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

// TestWindowedRunMatchesSequential builds the same seeded join wave
// twice, delivers one copy a window at a time (Run) and the other one
// event at a time (the engine's own Run), and requires every observable
// to agree: the join records in order, each machine's counters and
// table, the delivery counts and the events processed.
func TestWindowedRunMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		procs    int
		topology bool // transit-stub latencies, floor twice the least access link
		constant bool // arrivals tie on time, so only seq orders them
		crash    bool // a member fails mid-wave; its arrivals drop inside windows
		parallel bool // windows must run on helper goroutines
	}{
		{name: "procs2", procs: 2, parallel: true},
		{name: "procs1", procs: 1},
		{name: "topology", procs: 2, topology: true, parallel: true},
		{name: "constant", procs: 2, constant: true, parallel: true},
		{name: "crash", procs: 2, crash: true, parallel: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			windowed := windowWave(t, c.topology, c.constant, c.crash)
			sequential := windowWave(t, c.topology, c.constant, c.crash)
			windowed.Run()
			sequential.Engine().Run(0)

			if got := windowed.win.parallel > 0; got != c.parallel {
				t.Errorf("%d windows ran on helper goroutines, want parallel %v", windowed.win.parallel, c.parallel)
			}
			if c.crash && windowed.Dropped() == 0 {
				t.Error("no arrival reached the failed member")
			}
			if len(windowed.Joins()) == 0 {
				t.Fatal("no join completed")
			}
			if !reflect.DeepEqual(windowed.Joins(), sequential.Joins()) {
				t.Errorf("join records differ:\nwindowed   %v\nsequential %v", windowed.Joins(), sequential.Joins())
			}
			for _, pair := range [][2]uint64{
				{windowed.Delivered(), sequential.Delivered()},
				{windowed.Dropped(), sequential.Dropped()},
				{windowed.Engine().Processed(), sequential.Engine().Processed()},
				{uint64(windowed.Engine().Now()), uint64(sequential.Engine().Now())},
			} {
				if pair[0] != pair[1] {
					t.Errorf("delivered, dropped, processed, clock: windowed %d, sequential %d", pair[0], pair[1])
				}
			}
			members := sequential.Members()
			if !reflect.DeepEqual(windowed.Members(), members) {
				t.Fatal("membership differs")
			}
			for _, ref := range members {
				a, _ := windowed.Machine(ref.ID)
				b, _ := sequential.Machine(ref.ID)
				if !reflect.DeepEqual(a.Counters(), b.Counters()) {
					t.Errorf("%v: counters differ", ref.ID)
				}
				if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
					t.Errorf("%v: tables differ", ref.ID)
				}
			}
		})
	}
}

// windowWave is 64 joins into a consistent network of 256 on the bare
// protocol, scheduled at t=0 and not yet run, with uniform hashed
// latencies from 5 ms, transit-stub ones or a constant 10 ms. With
// crash, the gateway of the first joiner fails 30 ms in.
func windowWave(t *testing.T, transitStub, constant, crash bool) *Network {
	const n, m, seed = 256, 64, 11
	p := id.Params{B: 16, D: 8}
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[id.ID]bool, n+m)
	existing := RandomRefs(p, n, rng, taken)
	joiners := RandomRefs(p, m, rng, taken)
	latency := HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, seed)
	if transitStub {
		topo, err := topology.Generate(topology.Small(seed))
		if err != nil {
			t.Fatal(err)
		}
		tl := NewTopologyLatency(topo)
		all := append(existing[:n:n], joiners...)
		for i, host := range topo.AttachHosts(n+m, rng) {
			tl.Bind(all[i].ID, host)
		}
		latency = tl.Func()
	}
	if constant {
		latency = ConstantLatency(10 * time.Millisecond)
	}
	net := New(Config{Params: p, Latency: latency})
	net.BuildDirect(existing, rng)
	gateways := make([]table.Ref, m)
	for i, ref := range joiners {
		gateways[i] = existing[rng.Intn(n)]
		net.ScheduleJoin(ref, gateways[i], 0)
	}
	if crash {
		net.Engine().ScheduleAt(30*time.Millisecond, func() {
			if err := net.InjectFailure(gateways[0].ID); err != nil {
				t.Error(err)
			}
		})
	}
	return net
}
