package overlay

import (
	"fmt"
	"math/rand"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/obs"
	"hypercube/internal/topology"
)

// WaveConfig describes one join-wave experiment in the paper's
// methodology (§5.2): an initial consistent network of N nodes, M nodes
// joining concurrently at t=0, each bootstrapping from a random
// established node.
type WaveConfig struct {
	Params id.Params
	N      int // size of the initial consistent network
	M      int // number of concurrently joining nodes
	Opts   core.Options
	Seed   int64

	// Topology, when non-nil, attaches all N+M nodes as end hosts of the
	// router topology and uses exact shortest-path latencies; otherwise a
	// deterministic hashed pairwise latency in [5ms,120ms) is used.
	Topology *topology.Topology

	// Sink, when non-nil, receives every protocol event of the wave
	// stamped with the virtual clock (see Config.Sink).
	Sink obs.Sink
}

// WaveResult collects the outcome and the §5.2 cost metrics of one wave.
type WaveResult struct {
	Config     WaveConfig
	Records    []JoinRecord
	Violations []netcheck.Violation
	AllSNodes  bool
	// VirtualDuration is the simulated time from first join start to
	// quiescence.
	VirtualDuration time.Duration
	Events          uint64
	// JoinNoti is the per-joiner count of JoinNotiMsg sent, the paper's
	// Figure 15 metric, in join-completion order.
	JoinNoti []int
	// SentPerJoin is the average number of messages a joiner sent, by
	// type — the small-message accounting the paper defers to its
	// technical-report companion [7].
	SentPerJoin map[msg.Type]float64
}

// MeanJoinNoti returns the average number of JoinNotiMsg per join.
func (r *WaveResult) MeanJoinNoti() float64 {
	if len(r.JoinNoti) == 0 {
		return 0
	}
	total := 0
	for _, v := range r.JoinNoti {
		total += v
	}
	return float64(total) / float64(len(r.JoinNoti))
}

// Consistent reports whether the final network satisfied Definition 3.8.
func (r *WaveResult) Consistent() bool { return len(r.Violations) == 0 }

// RunWave executes the experiment: build the initial consistent network
// directly (the paper's premise), then join M nodes concurrently and run
// to quiescence.
func RunWave(cfg WaveConfig) (*WaveResult, error) {
	if cfg.N < 1 || cfg.M < 0 {
		return nil, fmt.Errorf("overlay: invalid wave size n=%d m=%d", cfg.N, cfg.M)
	}
	if float64(cfg.N+cfg.M) > 0.9*cfg.Params.Size() {
		return nil, fmt.Errorf("overlay: n+m=%d nodes exceed 90%% of the %g-ID space (b=%d,d=%d)",
			cfg.N+cfg.M, cfg.Params.Size(), cfg.Params.B, cfg.Params.D)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	taken := make(map[id.ID]bool, cfg.N+cfg.M)
	existing := RandomRefs(cfg.Params, cfg.N, rng, taken)
	joiners := RandomRefs(cfg.Params, cfg.M, rng, taken)

	var latency LatencyFunc
	if cfg.Topology != nil {
		tl := NewTopologyLatency(cfg.Topology)
		hosts := cfg.Topology.AttachHosts(cfg.N+cfg.M, rng)
		for i, ref := range existing {
			tl.Bind(ref.ID, hosts[i])
		}
		for i, ref := range joiners {
			tl.Bind(ref.ID, hosts[cfg.N+i])
		}
		latency = tl.Func()
	} else {
		latency = HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, cfg.Seed)
	}

	net := New(Config{Params: cfg.Params, Opts: cfg.Opts, Latency: latency, Sink: cfg.Sink})
	net.BuildDirect(existing, rng)

	machines := make([]*core.Machine, 0, cfg.M)
	for _, ref := range joiners {
		g0 := existing[rng.Intn(len(existing))]
		machines = append(machines, net.ScheduleJoin(ref, g0, 0))
	}
	events := net.Run()

	res := &WaveResult{
		Config:          cfg,
		Records:         net.Joins(),
		Violations:      net.CheckConsistency(),
		AllSNodes:       true,
		VirtualDuration: net.Engine().Now(),
		Events:          events,
	}
	for _, m := range machines {
		if !m.IsSNode() {
			res.AllSNodes = false
		}
	}
	res.JoinNoti = make([]int, 0, len(res.Records))
	for _, rec := range res.Records {
		res.JoinNoti = append(res.JoinNoti, rec.JoinNotiSent)
	}
	// Per-type breakdown of messages sent by joiners (the paper's TR
	// companion analyzes the small-message counts; we measure them).
	res.SentPerJoin = make(map[msg.Type]float64, len(msg.Types()))
	for _, m := range machines {
		c := m.Counters()
		for _, typ := range msg.Types() {
			res.SentPerJoin[typ] += float64(c.SentOf(typ))
		}
	}
	if cfg.M > 0 {
		for typ := range res.SentPerJoin {
			res.SentPerJoin[typ] /= float64(cfg.M)
		}
	}
	return res, nil
}
