// Package workload drives long-running churn scenarios over a simulated
// network: scripted or randomly generated sequences of join waves,
// graceful-leave waves, crashes the survivors must detect and repair,
// and optimization passes, with consistency verified at every quiescent
// point. It turns the paper's setting — a *dynamic* peer-to-peer
// network — into a repeatable experiment: the network lives through
// hundreds of membership events and must remain consistent throughout.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/netcheck"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

// Kind enumerates scenario operations.
type Kind uint8

const (
	// KindJoin adds Count nodes concurrently.
	KindJoin Kind = iota + 1
	// KindLeave makes Count random nodes depart gracefully, concurrently.
	KindLeave
	// KindCrash fails Count random nodes one after another, giving the
	// survivors the runner's window after each to detect and repair.
	KindCrash
	// KindOptimize runs one table-optimization pass.
	KindOptimize
)

// String names the operation kind.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindCrash:
		return "crash"
	case KindOptimize:
		return "optimize"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one scripted operation.
type Op struct {
	Kind  Kind
	Count int
}

// Script is a sequence of operations.
type Script []Op

// Mix weights the random script generator.
type Mix struct {
	JoinWeight     int
	LeaveWeight    int
	CrashWeight    int
	OptimizeWeight int
	// MaxBatch bounds the Count of join/leave operations.
	MaxBatch int
}

// DefaultMix is a churn-heavy blend.
func DefaultMix() Mix {
	return Mix{JoinWeight: 4, LeaveWeight: 3, CrashWeight: 2, OptimizeWeight: 1, MaxBatch: 20}
}

// RandomScript draws ops random operations from the mix.
func RandomScript(rng *rand.Rand, ops int, mix Mix) Script {
	total := mix.JoinWeight + mix.LeaveWeight + mix.CrashWeight + mix.OptimizeWeight
	if total <= 0 || mix.MaxBatch <= 0 {
		panic("workload: empty mix")
	}
	out := make(Script, 0, ops)
	for i := 0; i < ops; i++ {
		r := rng.Intn(total)
		switch {
		case r < mix.JoinWeight:
			out = append(out, Op{Kind: KindJoin, Count: 1 + rng.Intn(mix.MaxBatch)})
		case r < mix.JoinWeight+mix.LeaveWeight:
			out = append(out, Op{Kind: KindLeave, Count: 1 + rng.Intn(mix.MaxBatch)})
		case r < mix.JoinWeight+mix.LeaveWeight+mix.CrashWeight:
			out = append(out, Op{Kind: KindCrash, Count: 1 + rng.Intn(3)})
		default:
			out = append(out, Op{Kind: KindOptimize, Count: 1})
		}
	}
	return out
}

// Report summarizes one applied operation.
type Report struct {
	Op         Op
	Applied    int // how many joins/leaves/crashes actually ran
	Size       int // network size afterwards
	Violations int
	Messages   uint64 // messages delivered by this operation
}

// Runner owns a network and applies operations to it.
type Runner struct {
	// MinSize stops leaves/crashes from shrinking the network below this.
	MinSize int

	params id.Params
	window time.Duration
	net    *overlay.Network
	rng    *rand.Rand
	taken  map[id.ID]bool
	live   []table.Ref
}

// NewRunner builds an initial consistent network of initial nodes under
// cfg, which must let the survivors of a crash repair on their own (a
// failure detector and clock-driven repair); window is the virtual time
// they get per crash.
func NewRunner(cfg overlay.Config, window time.Duration, initial int, seed int64) (*Runner, error) {
	if initial < 1 {
		return nil, fmt.Errorf("workload: initial size %d", initial)
	}
	rng := rand.New(rand.NewSource(seed))
	r := &Runner{
		MinSize: 8,
		params:  cfg.Params,
		window:  window,
		net:     overlay.New(cfg),
		rng:     rng,
		taken:   make(map[id.ID]bool),
	}
	refs := overlay.RandomRefs(cfg.Params, initial, rng, r.taken)
	r.net.BuildDirect(refs, rng)
	r.live = append(r.live, refs...)
	return r, nil
}

// Size returns the current network size.
func (r *Runner) Size() int { return r.net.Size() }

// Apply executes one operation, runs the network to quiescence, verifies
// consistency, and reports.
func (r *Runner) Apply(op Op) (Report, error) {
	rep := Report{Op: op}
	before := r.net.Delivered()
	switch op.Kind {
	case KindJoin:
		joiners := overlay.RandomRefs(r.params, op.Count, r.rng, r.taken)
		for _, j := range joiners {
			g0 := r.live[r.rng.Intn(len(r.live))]
			r.net.ScheduleJoin(j, g0, r.net.Engine().Now())
		}
		r.net.Run()
		for _, j := range joiners {
			m, ok := r.net.Machine(j.ID)
			if !ok || !m.IsSNode() {
				return rep, fmt.Errorf("workload: joiner %v did not complete", j.ID)
			}
			r.live = append(r.live, j)
			rep.Applied++
		}
	case KindLeave:
		for i := 0; i < op.Count && len(r.live) > r.MinSize; i++ {
			idx := r.rng.Intn(len(r.live))
			x := r.live[idx]
			r.live = append(r.live[:idx], r.live[idx+1:]...)
			if err := r.net.ScheduleLeave(x.ID, r.net.Engine().Now()); err != nil {
				return rep, fmt.Errorf("workload: %w", err)
			}
			rep.Applied++
		}
		r.net.Run()
		if gone := r.net.FinalizeLeaves(); len(gone) != rep.Applied {
			return rep, fmt.Errorf("workload: %d of %d leaves completed", len(gone), rep.Applied)
		}
	case KindCrash:
		// A detector declares only a peer it has heard from: one it has
		// not is dropped as unreachable, with no gossip and no orphan
		// re-announcement. Joins and leaves run without the clock, so
		// every detector first gets a window to hear from its peers.
		r.net.RunFor(r.window)
		for i := 0; i < op.Count && len(r.live) > r.MinSize; i++ {
			idx := r.rng.Intn(len(r.live))
			x := r.live[idx]
			r.live = append(r.live[:idx], r.live[idx+1:]...)
			if err := r.net.InjectFailure(x.ID); err != nil {
				return rep, fmt.Errorf("workload: %w", err)
			}
			r.net.RunFor(r.window)
			rep.Applied++
		}
	case KindOptimize:
		r.net.OptimizeTables(1)
		rep.Applied = 1
	default:
		return rep, fmt.Errorf("workload: unknown op %v", op.Kind)
	}
	rep.Messages = r.net.Delivered() - before
	rep.Size = r.net.Size()
	rep.Violations = len(r.net.CheckConsistency())
	return rep, nil
}

// RunScript applies every operation, stopping at the first error or
// consistency violation.
func (r *Runner) RunScript(script Script) ([]Report, error) {
	reports := make([]Report, 0, len(script))
	for i, op := range script {
		rep, err := r.Apply(op)
		reports = append(reports, rep)
		if err != nil {
			return reports, fmt.Errorf("workload: op %d (%v): %w", i, op.Kind, err)
		}
		if rep.Violations > 0 {
			return reports, fmt.Errorf("workload: op %d (%v) left %d consistency violations", i, op.Kind, rep.Violations)
		}
	}
	return reports, nil
}

// VerifyReachability routes between sample random pairs and returns the
// number of failed routes (0 in a consistent network, per Lemma 3.1).
func (r *Runner) VerifyReachability(sample int) int {
	tables := r.net.Tables()
	failed := 0
	for i := 0; i < sample && len(r.live) >= 2; i++ {
		src := r.live[r.rng.Intn(len(r.live))]
		dst := r.live[r.rng.Intn(len(r.live))]
		if _, ok := netcheck.Reachable(r.params, tables, src.ID, dst.ID); !ok {
			failed++
		}
	}
	return failed
}
