package main

import (
	"math"
	"math/rand"
	"time"

	"hypercube/internal/dht"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

// simLookup is read-only: object lookups routed over the tables of a
// consistent network. It uses id and table the other way round from the
// join workloads: entry reads and digit operations, no snapshots, no
// writes, no messages, over a working set (n tables) far beyond cache.
// One op is one lookup; its latency is wall time, each lookup timed on
// its own (two clock reads, about 2% of a lookup).
type simLookup struct {
	n, objects int
	lookups    int // per round

	probeIters int

	last *overlay.Network
}

func newSimLookup(s scale) workload {
	if s == toy {
		return &simLookup{n: 256, objects: 256, lookups: 1000, probeIters: 20}
	}
	return &simLookup{n: 4096, objects: 4096, lookups: 100_000, probeIters: 1000}
}

func (w *simLookup) round(seed int64, r *recorder) {
	p := paperParams
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	members := overlay.RandomRefs(p, w.n, rng, nil)
	net := overlay.New(overlay.Config{Params: p})
	build := r.call("overlay.BuildDirect", func() { net.BuildDirect(members, rng) })
	store := dht.NewStore(p, net)
	objects := make([]id.ID, w.objects)
	holders := make(map[id.ID]id.ID, w.objects)
	publish := r.call("dht.Publish", func() {
		for i := range objects {
			objects[i] = id.Random(p, rng)
			for _, dup := holders[objects[i]]; dup; _, dup = holders[objects[i]] {
				objects[i] = id.Random(p, rng) // one holder per object keeps the check exact
			}
			holder := members[rng.Intn(len(members))]
			if _, err := store.Publish(objects[i], holder); err != nil {
				r.failf("seed %d: %v", seed, err)
			}
			holders[objects[i]] = holder.ID
		}
	})
	r.setup(time.Since(t0))
	r.layer("overlay.build_direct_s", build.Seconds())
	r.layer("dht.publish_us", float64(publish)/1e3/float64(w.objects))

	from := make([]id.ID, w.lookups)
	what := make([]id.ID, w.lookups)
	for i := range from {
		from[i], what[i] = members[rng.Intn(len(members))].ID, objects[rng.Intn(len(objects))]
	}
	hops, failed := 0, 0
	r.reserve(w.lookups)
	r.resume()
	r.call("dht.Lookup", func() {
		for k := range from {
			t0 := time.Now()
			holder, h, err := store.Lookup(from[k], what[k])
			d := time.Since(t0)
			if err != nil || holder.ID != holders[what[k]] {
				failed++
				continue
			}
			hops += h
			r.latency(d)
		}
	})
	r.pause()
	if failed > 0 {
		r.failf("seed %d: %d of %d lookups did not return the published holder", seed, failed, w.lookups)
	}
	// A routed lookup would send one Find per hop; the simulator walks the
	// tables in place, so the bytes are that accounting, not traffic.
	findSize := msg.Envelope{Msg: msg.Find{Want: objects[0].Suffix(p.D), Origin: members[0]}}.WireSize()
	r.commit(w.lookups-failed, failed, hops, hops*findSize)

	measured := float64(hops) / float64(w.lookups-failed)
	model := modelHops(p, members, objects, store, r)
	r.layer("dht.hops_mean", measured)
	if model > 0 {
		modelErr := math.Abs(measured-model) / model
		r.layer("dht.hops_model_err", modelErr)
		if modelErr > 0.05 && w.lookups >= 100_000 {
			r.failf("seed %d: %.4f hops per lookup measured, %.4f predicted from the suffix-class sizes (off by %.1f%%)",
				seed, measured, model, 100*modelErr)
		}
	}
	w.last = net
}

func (w *simLookup) probes(r *recorder) {
	probeLayers(r, paperParams, w.last.Tables(), r.cfg.seed, w.probeIters)
}

// modelHops predicts the mean hops of a lookup from a uniformly random
// member for a uniformly random published object, from the member set's
// suffix-class sizes alone. It is the Markov chain of Roos, Salah and
// Strufe ("Comprehending Kademlia Routing") recast for base-b suffix
// routing with surrogate digits: the state is the length of the suffix a
// node shares with the object's root R. A node at state k forwards to a
// uniformly random member of the class sharing k+1 digits with R
// (BuildDirect fills entries that way), so it lands on state l > k with
// probability e_l/c_(k+1), where c_l members share at least l digits
// with R and e_l = c_l - c_(l+1) share exactly l. The lookup stops at
// the first node that is also on the publish path, which is a second,
// independent walk of the same chain from the holder; the two walks meet
// at state l with probability 1/e_l when both land there, and surely at
// R. The measured mean must agree: a disagreement is a bug in routing or
// in this benchmark.
func modelHops(p id.Params, members []table.Ref, objects []id.ID, store *dht.Store, r *recorder) float64 {
	ids := make([]id.ID, len(members))
	for i, m := range members {
		ids[i] = m.ID
	}
	reg := netcheck.NewSuffixRegistry(p, ids)
	total := 0.0
	for _, obj := range objects {
		root, err := store.Root(ids[0], obj)
		if err != nil {
			r.failf("root of %v: %v", obj, err)
			return 0
		}
		// e[l] for l in 0..D: members sharing exactly l digits with root.
		e := make([]float64, p.D+1)
		c := make([]float64, p.D+2)
		for l := 0; l <= p.D; l++ {
			c[l] = float64(reg.Count(root.Suffix(l)))
		}
		for l := 0; l <= p.D; l++ {
			e[l] = c[l] - c[l+1]
		}
		total += expectedHops(e, c)
	}
	return total / float64(len(objects))
}

// expectedHops evaluates the two-walk chain: in state (i, j) the lookup
// stands at level i, the publish walk at level j, on different nodes.
func expectedHops(e, c []float64) float64 {
	d := len(e) - 1
	n := c[0]
	// visit returns the expected further hops of the lookup from (i, j).
	// The walk that is behind moves; on a tie the lookup moves.
	memo := make(map[[2]int]float64)
	var visit func(i, j int) float64
	visit = func(i, j int) float64 {
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		v := 0.0
		if i <= j {
			// The lookup hops to level l > i.
			for l := i + 1; l <= d; l++ {
				if e[l] == 0 {
					continue
				}
				pl := e[l] / c[i+1]
				rest := visit(l, j)
				if l == j {
					rest *= 1 - 1/e[l] // it may land on the publish walk's node
				}
				v += pl * (1 + rest)
			}
		} else {
			// The publish walk moves to level l > j; no lookup hop.
			for l := j + 1; l <= d; l++ {
				if e[l] == 0 {
					continue
				}
				rest := visit(i, l)
				if l == i {
					rest *= 1 - 1/e[l] // it may land on the lookup's node
				}
				v += e[l] / c[j+1] * rest
			}
		}
		memo[[2]int{i, j}] = v
		return v
	}
	// Both walks start at independent uniform members.
	exp := 0.0
	for i := 0; i <= d; i++ {
		for j := 0; j <= d; j++ {
			if e[i] == 0 || e[j] == 0 {
				continue
			}
			w := e[i] / n * e[j] / n
			if i == j {
				w *= 1 - 1/e[i] // the same node: the pointer is found at once
			}
			exp += w * visit(i, j)
		}
	}
	return exp
}
