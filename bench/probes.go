package main

import (
	"math/rand"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/overlay"
	"hypercube/internal/sim"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// tableMap resolves a node's table for core.Route and dht.Store.
type tableMap map[id.ID]*table.Table

func (m tableMap) TableOf(x id.ID) (*table.Table, bool) {
	t, ok := m[x]
	return t, ok
}

// sink keeps the probes' results alive so the compiler cannot drop the
// calls being timed.
var sink int

// probeLayers times public functions of id, table, wire, guard, sim and
// core's routing on the tables a round left behind, so that an
// end-to-end change can be traced to a layer without a profiler. iters
// scales every loop; each probe stays well under a second.
func probeLayers(r *recorder, p id.Params, tables map[id.ID]*table.Table, seed int64, iters int) {
	rng := rand.New(rand.NewSource(seed))
	owners := make([]id.ID, 0, len(tables))
	for x := range tables {
		owners = append(owners, x)
	}
	// Map order is random; the probes' inputs must not be.
	sortIDs(owners)
	tbls := make([]*table.Table, len(owners))
	filled := 0
	for i, x := range owners {
		tbls[i] = tables[x]
		filled += tbls[i].FilledCount()
	}
	r.layer("table.fill_ratio", float64(filled)/float64(len(tbls)*p.B*p.D))
	pick := func() int { return rng.Intn(len(owners)) }

	// id: the two digit operations routing and table construction lean on.
	pairs := make([][2]id.ID, 1024)
	for i := range pairs {
		pairs[i] = [2]id.ID{owners[pick()], owners[pick()]}
	}
	i := 0
	ns, _, _ := timeOp(100*iters, func() {
		pr := pairs[i%len(pairs)]
		sink += pr[0].CommonSuffixLen(pr[1])
		i++
	})
	r.layer("id.csuf_ns", ns)
	suffixes := make([]id.Suffix, 1024)
	for i := range suffixes {
		suffixes[i] = owners[pick()].Suffix(rng.Intn(p.D))
	}
	ns, allocs, _ := timeOp(100*iters, func() {
		sink += suffixes[i%len(suffixes)].Extend(i % p.B).Len()
		i++
	})
	r.layer("id.extend_ns", ns)
	r.layer("id.extend_allocs", allocs)

	// table: the copy every big message carries, its iteration, and the
	// single-entry read routing uses. Snapshot hands out a cached copy until the table changes; rewriting
	// one entry first makes every timed call pay for the copy, as a call
	// on a table that a join just changed does.
	order := rng.Perm(len(tbls))
	ns, allocs, bytes := timeOp(iters, func() {
		t := tbls[order[i%len(order)]]
		own := t.Get(0, t.Owner().Digit(0))
		t.Set(0, t.Owner().Digit(0), table.Neighbor{})
		t.Set(0, t.Owner().Digit(0), own)
		sink += t.Snapshot().FilledCount()
		i++
	})
	r.layer("table.snapshot_ns", ns)
	r.layer("table.snapshot_allocs", allocs)
	r.layer("table.snapshot_kb", bytes/1024)
	snaps := make([]table.Snapshot, 64)
	for i := range snaps {
		snaps[i] = tbls[pick()].Snapshot()
	}
	ns, _, _ = timeOp(iters, func() {
		snaps[i%len(snaps)].ForEach(func(level, digit int, n table.Neighbor) { sink += level })
		i++
	})
	r.layer("table.foreach_ns", ns)
	ns, _, _ = timeOp(100*iters, func() {
		if !tbls[order[i%len(order)]].Get(i%p.D, (i/p.D)%p.B).IsZero() {
			sink++
		}
		i++
	})
	r.layer("table.get_ns", ns)

	// wire and guard: a CpRly carrying such a snapshot, and the smallest
	// message, through the binary codec and the ingress check.
	from, to := tbls[order[0]], tbls[order[len(order)-1]]
	big := msg.Envelope{
		From: table.Ref{ID: from.Owner(), Addr: "127.0.0.1:7001"},
		To:   table.Ref{ID: to.Owner(), Addr: "127.0.0.1:7002"},
		Msg:  msg.CpRly{Table: from.Snapshot()},
	}
	small := big
	small.Msg = msg.CpRst{Level: 0}
	payload, err := wire.EncodePayload(p, big)
	if err != nil {
		r.failf("wire.EncodePayload(CpRly): %v", err)
		return
	}
	r.layer("wire.big_frame_bytes", float64(len(payload)))
	ns, allocs, _ = timeOp(iters, func() {
		b, _ := wire.EncodePayload(p, big) // checked once above
		sink += len(b)
	})
	r.layer("wire.encode_big_ns", ns)
	r.layer("wire.encode_allocs", allocs)
	ns, _, _ = timeOp(iters, func() {
		if err := wire.DecodePayload(p, payload, func(msg.Envelope) error { return nil }); err != nil {
			r.failf("wire.DecodePayload(CpRly): %v", err)
		}
	})
	r.layer("wire.decode_big_ns", ns)
	ns, _, _ = timeOp(10*iters, func() {
		b, _ := wire.EncodePayload(p, small)
		sink += len(b)
	})
	r.layer("wire.encode_small_ns", ns)
	ns, _, _ = timeOp(iters, func() {
		if err := guard.Check(p, big.To.ID, big); err != nil {
			r.failf("guard.Check rejected an honest CpRly: %v", err)
		}
	})
	r.layer("guard.check_ns", ns)

	// sim: one schedule plus one step with 10^5 events pending.
	eng := sim.NewEngine()
	for k := 0; k < 100*iters; k++ {
		eng.Schedule(time.Duration(rng.Int63n(int64(time.Second))), func() {})
	}
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	ns, _, _ = timeOp(100*iters, func() {
		eng.Schedule(delays[i%len(delays)], func() {})
		eng.Step()
		i++
	})
	r.layer("sim.heap_ns", ns)

	// core: one routed path between two members.
	ns, _, _ = timeOp(10*iters, func() {
		pr := pairs[i%len(pairs)]
		path, ok := core.Route(tableMap(tables), pr[0], pr[1], p)
		if !ok {
			r.failf("core.Route %v -> %v broke off after %d hops", pr[0], pr[1], len(path)-1)
		}
		i++
	})
	r.layer("core.route_ns", ns)
}

// probeDeliver runs further sequential joins over the machines a
// simulated wave left behind, through a zero-latency FIFO queue in place
// of the event engine, and times every core.Machine.Deliver by message
// type. Every machine must be in_system: nothing here drives a clock.
func probeDeliver(r *recorder, net *overlay.Network, opts core.Options, seed int64, joins int) {
	p := net.Params()
	rng := rand.New(rand.NewSource(seed))
	members := net.Members()
	taken := make(map[id.ID]bool, len(members)+joins)
	for _, m := range members {
		taken[m.ID] = true
	}
	joined := make(map[id.ID]*core.Machine, joins)
	byType := make(map[msg.Type][]float64)
	var all []float64
	var ms0, ms1 memCounters
	ms0.read()
	for _, ref := range overlay.RandomRefs(p, joins, rng, taken) {
		m := core.NewJoiner(p, ref, opts)
		joined[ref.ID] = m
		queue, err := m.StartJoin(members[rng.Intn(len(members))])
		if err != nil {
			r.failf("probe join %v: %v", ref.ID, err)
			return
		}
		for len(queue) > 0 {
			env := queue[0]
			queue = queue[1:]
			target, ok := joined[env.To.ID]
			if !ok {
				if target, ok = net.Machine(env.To.ID); !ok {
					r.failf("probe join %v: envelope for unknown node %v", ref.ID, env.To.ID)
					return
				}
			}
			t0 := time.Now()
			out := target.Deliver(env)
			d := float64(time.Since(t0))
			byType[env.Msg.Type()] = append(byType[env.Msg.Type()], d)
			all = append(all, d)
			queue = append(queue, out...)
		}
		if !m.IsSNode() {
			r.failf("probe join %v ended in status %v", ref.ID, m.Status())
		}
	}
	ms1.read()
	mean := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	r.layer("core.deliver_ns", mean(all))
	r.layer("core.deliver_allocs", float64(ms1.mallocs-ms0.mallocs)/float64(len(all)))
	named := map[msg.Type]string{
		msg.TCpRst:       "core.deliver_cprst_ns",
		msg.TCpRly:       "core.deliver_cprly_ns",
		msg.TJoinNoti:    "core.deliver_joinnoti_ns",
		msg.TJoinNotiRly: "core.deliver_joinnotirly_ns",
	}
	var other []float64
	for typ, v := range byType {
		if name, ok := named[typ]; ok {
			r.layer(name, mean(v))
		} else {
			other = append(other, v...)
		}
	}
	r.layer("core.deliver_other_ns", mean(other))
}
