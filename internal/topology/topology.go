// Package topology generates transit-stub router topologies in the style
// of GT-ITM (Calvert, Doar & Zegura), the tool used for the simulations in
// Liu & Lam's §5.2, and answers exact shortest-path latency queries
// between attached end hosts.
//
// Structure: T transit domains, each of Nt transit routers; every transit
// router hosts S stub domains of Ns routers each. Stub domains connect to
// the core through exactly one gateway edge. The default configuration
// reproduces the paper's scale: 8320 routers.
//
// Latencies are exact shortest paths, computed without an all-pairs
// matrix: every stub domain has a single gateway, so intra-stub distances
// close under the stub subgraph, and any inter-stub path crosses at least
// one transit router, making dist(u,v) = min over transit routers t of
// dist(t,u)+dist(t,v); the package precomputes one Dijkstra per transit
// router and all-pairs within each (small) stub domain.
package topology

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// LatencyRange is a uniform latency interval for one link class.
type LatencyRange struct {
	Min, Max time.Duration
}

func (r LatencyRange) draw(rng *rand.Rand) time.Duration {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + time.Duration(rng.Int63n(int64(r.Max-r.Min)))
}

// Config parameterizes the generator.
type Config struct {
	TransitDomains        int
	RoutersPerTransit     int
	StubsPerTransitRouter int
	RoutersPerStub        int

	// Link latency classes.
	IntraStub    LatencyRange // links inside a stub domain
	StubTransit  LatencyRange // stub gateway to its transit router
	IntraTransit LatencyRange // links inside a transit domain
	InterTransit LatencyRange // links between transit domains

	// ExtraStubEdges adds this many extra random edges per stub domain on
	// top of the spanning tree, creating path diversity.
	ExtraStubEdges int
	// TransitChordProb is the probability of a chord between any two
	// routers of the same transit domain beyond the connecting ring.
	TransitChordProb float64

	Seed int64
}

// Validate reports whether the configuration is generable.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains < 1:
		return fmt.Errorf("topology: need at least 1 transit domain, have %d", c.TransitDomains)
	case c.RoutersPerTransit < 1:
		return fmt.Errorf("topology: need at least 1 router per transit domain, have %d", c.RoutersPerTransit)
	case c.StubsPerTransitRouter < 0 || c.RoutersPerStub < 0:
		return fmt.Errorf("topology: negative stub parameters")
	case c.StubsPerTransitRouter > 0 && c.RoutersPerStub < 1:
		return fmt.Errorf("topology: stub domains need at least 1 router")
	case c.TransitChordProb < 0 || c.TransitChordProb > 1:
		return fmt.Errorf("topology: chord probability %v out of [0,1]", c.TransitChordProb)
	default:
		return nil
	}
}

// RouterCount returns the total number of routers the config generates.
func (c Config) RouterCount() int {
	transit := c.TransitDomains * c.RoutersPerTransit
	return transit + transit*c.StubsPerTransitRouter*c.RoutersPerStub
}

// Default8320 reproduces the paper's simulation scale: a topology with
// 8320 routers (4 transit domains of 8 routers; 7 stub domains per
// transit router with 37 routers each: 32 + 32*7*37 = 8320).
func Default8320(seed int64) Config {
	return Config{
		TransitDomains:        4,
		RoutersPerTransit:     8,
		StubsPerTransitRouter: 7,
		RoutersPerStub:        37,
		IntraStub:             LatencyRange{1 * time.Millisecond, 5 * time.Millisecond},
		StubTransit:           LatencyRange{8 * time.Millisecond, 16 * time.Millisecond},
		IntraTransit:          LatencyRange{15 * time.Millisecond, 30 * time.Millisecond},
		InterTransit:          LatencyRange{40 * time.Millisecond, 80 * time.Millisecond},
		ExtraStubEdges:        8,
		TransitChordProb:      0.3,
		Seed:                  seed,
	}
}

// Small returns a reduced configuration (~1/16 scale) for fast tests.
func Small(seed int64) Config {
	c := Default8320(seed)
	c.TransitDomains = 2
	c.RoutersPerTransit = 4
	c.StubsPerTransitRouter = 3
	c.RoutersPerStub = 10
	c.ExtraStubEdges = 3
	return c
}

type edge struct {
	to int
	w  time.Duration
}

// Topology is a generated router graph with attached end hosts.
type Topology struct {
	cfg        Config
	adj        [][]edge
	stubOf     []int // router -> stub index, -1 for transit routers
	domainOf   []int // router -> transit domain index
	transit    []int // transit router ids
	stubs      [][]int
	gatewayOf  []int // stub -> its transit router
	edgeCount  int
	distTrans  [][]time.Duration // [transit idx][router] exact distance
	stubDist   []map[[2]int]time.Duration
	hostRouter []int
	accessLat  []time.Duration // per-host access-link latency
}

// Generate builds a topology from the configuration. The same
// configuration (including seed) always yields the same topology.
func Generate(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.RouterCount()
	t := &Topology{
		cfg:      cfg,
		adj:      make([][]edge, n),
		stubOf:   make([]int, n),
		domainOf: make([]int, n),
	}
	for i := range t.stubOf {
		t.stubOf[i] = -1
		t.domainOf[i] = -1
	}

	addEdge := func(a, b int, w time.Duration) {
		t.adj[a] = append(t.adj[a], edge{to: b, w: w})
		t.adj[b] = append(t.adj[b], edge{to: a, w: w})
		t.edgeCount++
	}

	// Transit core: routers 0..T*Nt-1, domain d owns a contiguous block.
	next := 0
	domains := make([][]int, cfg.TransitDomains)
	for d := range domains {
		for r := 0; r < cfg.RoutersPerTransit; r++ {
			domains[d] = append(domains[d], next)
			t.domainOf[next] = d
			t.transit = append(t.transit, next)
			next++
		}
		// Ring plus random chords within the domain.
		rs := domains[d]
		for i := range rs {
			if len(rs) > 1 {
				addEdge(rs[i], rs[(i+1)%len(rs)], cfg.IntraTransit.draw(rng))
			}
			for j := i + 2; j < len(rs); j++ {
				if rng.Float64() < cfg.TransitChordProb {
					addEdge(rs[i], rs[j], cfg.IntraTransit.draw(rng))
				}
			}
		}
	}
	// Inter-domain: connect consecutive domains (guaranteeing a connected
	// core) plus one random extra edge per domain pair with probability ½.
	for d := 1; d < cfg.TransitDomains; d++ {
		a := domains[d-1][rng.Intn(len(domains[d-1]))]
		b := domains[d][rng.Intn(len(domains[d]))]
		addEdge(a, b, cfg.InterTransit.draw(rng))
	}
	for d1 := 0; d1 < cfg.TransitDomains; d1++ {
		for d2 := d1 + 1; d2 < cfg.TransitDomains; d2++ {
			if rng.Float64() < 0.5 {
				a := domains[d1][rng.Intn(len(domains[d1]))]
				b := domains[d2][rng.Intn(len(domains[d2]))]
				addEdge(a, b, cfg.InterTransit.draw(rng))
			}
		}
	}

	// Stub domains: a random spanning tree plus extra edges, one gateway
	// edge to the owning transit router.
	for _, tr := range t.transit {
		for s := 0; s < cfg.StubsPerTransitRouter; s++ {
			stubIdx := len(t.stubs)
			var routers []int
			for r := 0; r < cfg.RoutersPerStub; r++ {
				routers = append(routers, next)
				t.stubOf[next] = stubIdx
				t.domainOf[next] = t.domainOf[tr]
				next++
			}
			for i := 1; i < len(routers); i++ {
				addEdge(routers[i], routers[rng.Intn(i)], cfg.IntraStub.draw(rng))
			}
			for e := 0; e < cfg.ExtraStubEdges && len(routers) > 2; e++ {
				a, b := routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))]
				if a != b {
					addEdge(a, b, cfg.IntraStub.draw(rng))
				}
			}
			gateway := routers[rng.Intn(len(routers))]
			addEdge(gateway, tr, cfg.StubTransit.draw(rng))
			t.stubs = append(t.stubs, routers)
			t.gatewayOf = append(t.gatewayOf, tr)
		}
	}

	t.precompute()
	return t, nil
}

// precompute runs one full-graph Dijkstra per transit router and all-pairs
// Dijkstra within each stub subgraph.
func (t *Topology) precompute() {
	t.distTrans = make([][]time.Duration, len(t.transit))
	for i, tr := range t.transit {
		t.distTrans[i] = t.dijkstra(tr, nil)
	}
	t.stubDist = make([]map[[2]int]time.Duration, len(t.stubs))
	for s, routers := range t.stubs {
		inStub := make(map[int]bool, len(routers))
		for _, r := range routers {
			inStub[r] = true
		}
		pairs := make(map[[2]int]time.Duration, len(routers)*len(routers))
		for _, src := range routers {
			d := t.dijkstra(src, inStub)
			for _, dst := range routers {
				pairs[[2]int{src, dst}] = d[dst]
			}
		}
		t.stubDist[s] = pairs
	}
}

type pqItem struct {
	router int
	dist   time.Duration
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

const unreachable = time.Duration(1<<62 - 1)

// dijkstra returns distances from src; when restrict is non-nil only
// routers in the set are traversed.
func (t *Topology) dijkstra(src int, restrict map[int]bool) []time.Duration {
	dist := make([]time.Duration, len(t.adj))
	for i := range dist {
		dist[i] = unreachable
	}
	dist[src] = 0
	q := pq{{router: src}}
	for len(q) > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.router] {
			continue
		}
		for _, e := range t.adj[it.router] {
			if restrict != nil && !restrict[e.to] {
				continue
			}
			if nd := it.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(&q, pqItem{router: e.to, dist: nd})
			}
		}
	}
	return dist
}

// RouterCount returns the number of routers.
func (t *Topology) RouterCount() int { return len(t.adj) }

// EdgeCount returns the number of undirected links.
func (t *Topology) EdgeCount() int { return t.edgeCount }

// StubCount returns the number of stub domains.
func (t *Topology) StubCount() int { return len(t.stubs) }

// TransitRouterCount returns the number of transit routers.
func (t *Topology) TransitRouterCount() int { return len(t.transit) }

// HostCount returns the number of attached end hosts.
func (t *Topology) HostCount() int { return len(t.hostRouter) }

// AttachHosts attaches n end hosts to uniformly random stub routers, each
// over an access link with an intra-stub-class latency, and returns the
// host indices [prev, prev+n). Hosts may share routers.
func (t *Topology) AttachHosts(n int, rng *rand.Rand) []int {
	var stubRouters []int
	for _, routers := range t.stubs {
		stubRouters = append(stubRouters, routers...)
	}
	if len(stubRouters) == 0 {
		stubRouters = t.transit // degenerate config without stubs
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, len(t.hostRouter))
		t.hostRouter = append(t.hostRouter, stubRouters[rng.Intn(len(stubRouters))])
		t.accessLat = append(t.accessLat, t.cfg.IntraStub.draw(rng))
	}
	return out
}

// AccessLatency returns the latency of host h's access link.
func (t *Topology) AccessLatency(h int) time.Duration { return t.accessLat[h] }

// HostRouter returns the router host h is attached to.
func (t *Topology) HostRouter(h int) int { return t.hostRouter[h] }

// StubOf returns the stub-domain index router r belongs to, or -1 for
// transit routers. Fault injectors use it to take down whole stub
// domains (every host attached under the domain) at once.
func (t *Topology) StubOf(r int) int { return t.stubOf[r] }

// RouterDistance returns the exact shortest-path latency between two
// routers.
func (t *Topology) RouterDistance(a, b int) time.Duration {
	if a == b {
		return 0
	}
	sa, sb := t.stubOf[a], t.stubOf[b]
	if sa >= 0 && sa == sb {
		return t.stubDist[sa][[2]int{a, b}]
	}
	// Any path between different stubs (or involving the core) crosses a
	// transit router, so min over transit pivots is exact.
	best := unreachable
	for i := range t.distTrans {
		if d := t.distTrans[i][a] + t.distTrans[i][b]; d < best {
			best = d
		}
	}
	return best
}

// Latency returns the end-to-end latency between two hosts: access links
// plus exact router shortest path. Two hosts on the same router still pay
// their access links, so latency between distinct hosts is never zero.
func (t *Topology) Latency(hostA, hostB int) time.Duration {
	if hostA == hostB {
		return 0
	}
	ra, rb := t.hostRouter[hostA], t.hostRouter[hostB]
	return t.accessLat[hostA] + t.RouterDistance(ra, rb) + t.accessLat[hostB]
}

// Stats summarizes the topology for reporting tools.
type Stats struct {
	Routers, Edges, TransitRouters, Stubs, Hosts int
	MeanHostLatency, MaxHostLatency              time.Duration
	SampledPairs                                 int
}

// SampleStats estimates host-to-host latency statistics over pairs
// sampled with rng.
func (t *Topology) SampleStats(pairs int, rng *rand.Rand) Stats {
	st := Stats{
		Routers:        t.RouterCount(),
		Edges:          t.EdgeCount(),
		TransitRouters: t.TransitRouterCount(),
		Stubs:          t.StubCount(),
		Hosts:          t.HostCount(),
	}
	if t.HostCount() < 2 {
		return st
	}
	var total time.Duration
	for i := 0; i < pairs; i++ {
		a, b := rng.Intn(t.HostCount()), rng.Intn(t.HostCount())
		if a == b {
			continue
		}
		l := t.Latency(a, b)
		total += l
		if l > st.MaxHostLatency {
			st.MaxHostLatency = l
		}
		st.SampledPairs++
	}
	if st.SampledPairs > 0 {
		st.MeanHostLatency = total / time.Duration(st.SampledPairs)
	}
	return st
}
