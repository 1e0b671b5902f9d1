// Package nemesis is the deterministic chaos-search harness: a typed,
// JSON-serializable fault-schedule model over the virtual-clock overlay
// simulator, a seeded generator that composes schedules from the full
// fault repertoire (churn, partitions, byzantine members, gray slowness,
// loss bursts, clock pauses, restart-from-persist), an invariant oracle
// evaluated at every quiescence point, and a delta-debugging shrinker
// that reduces a violating schedule to a minimal reproduction. The whole
// pipeline is bit-reproducible: the same seed yields the same schedule,
// the same verdicts, and the same shrunk repro, across runs and machines
// — the FoundationDB simulation-testing discipline applied to the
// paper's protocol stack.
package nemesis

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Op names one fault-schedule action. The strings are the wire format of
// repro files; renaming one invalidates recorded repros.
type Op string

const (
	// OpJoinWave admits Count simultaneous joiners through up to three
	// honest gateways, then waits for full admission.
	OpJoinWave Op = "join-wave"
	// OpLeave runs Count graceful (§7) departures to completion.
	OpLeave Op = "leave"
	// OpCrash kills Count members abruptly; survivors must detect and
	// repair on their own.
	OpCrash Op = "crash"
	// OpPartition cuts a minority of Frac members away for Dur, then
	// heals. Declarations must freeze on both sides (partition mode).
	OpPartition Op = "partition"
	// OpSlow marks Count members gray: alive and correct but ramping to
	// a per-side processing delay of Dur (0: 400 ms). They stay slow
	// until the final settle.
	OpSlow Op = "slow"
	// OpByzantine marks Frac of the members hostile (mutating,
	// withholding, replaying). They stay hostile for the whole run.
	OpByzantine Op = "byzantine"
	// OpLoss raises the message-loss rate to Rate for Dur, then restores
	// lossless delivery.
	OpLoss Op = "loss"
	// OpPause clock-pauses Count members for Dur: their timers stall and
	// their inbound traffic bursts at resume. Dur is kept below the
	// declaration window by the generator, so a declaration is a finding.
	OpPause Op = "pause"
	// OpRestart persists Count members, crashes them, and immediately
	// restarts each from its dump (rejoin re-announce). With Corrupt,
	// the dump is bit-flipped first and the node must detect the damage
	// and fall back to a fresh join.
	OpRestart Op = "restart"
	// OpQuiesce settles the network (sync rounds until Definition 3.8
	// consistency, bounded) and runs the full invariant oracle.
	OpQuiesce Op = "quiesce"
	// OpCrashStubs kills, at one instant, every member hosted in Count
	// stub domains of the transit-stub topology: a correlated outage.
	OpCrashStubs Op = "crash-stubs"
)

// LatencyTransitStub names the latency model of a Schedule whose members
// sit on end hosts of the 248-router transit-stub topology; the empty
// name is a constant 10 ms.
const LatencyTransitStub = "transit-stub"

// Action is one step of a fault schedule. Unused fields stay zero and
// are omitted from the JSON; Gap is virtual time the executor runs after
// the action completes, letting consequences overlap the next fault.
type Action struct {
	Op      Op            `json:"op"`
	Count   int           `json:"count,omitempty"`
	Frac    float64       `json:"frac,omitempty"`
	Rate    float64       `json:"rate,omitempty"`
	Dur     time.Duration `json:"dur,omitempty"`
	Gap     time.Duration `json:"gap,omitempty"`
	Corrupt bool          `json:"corrupt,omitempty"`
}

func (a Action) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", a.Op)
	if a.Count > 0 {
		fmt.Fprintf(&b, " count=%d", a.Count)
	}
	if a.Frac > 0 {
		fmt.Fprintf(&b, " frac=%.2f", a.Frac)
	}
	if a.Rate > 0 {
		fmt.Fprintf(&b, " rate=%.2f", a.Rate)
	}
	if a.Dur > 0 {
		fmt.Fprintf(&b, " dur=%v", a.Dur)
	}
	if a.Gap > 0 {
		fmt.Fprintf(&b, " gap=%v", a.Gap)
	}
	if a.Corrupt {
		b.WriteString(" corrupt")
	}
	return b.String()
}

// Schedule is a complete chaos scenario: the ID-space shape, the base
// network size, the seed that drives every in-run random choice, the
// action sequence, and two header fields a generated schedule leaves
// at their defaults (and out of its JSON): the latency model, and
// FixedTimeouts, which attaches no RTT estimator. These fields fully
// determine the run.
type Schedule struct {
	Seed          uint64   `json:"seed"`
	B             int      `json:"b"`
	D             int      `json:"d"`
	Nodes         int      `json:"nodes"`
	Latency       string   `json:"latency,omitempty"`
	FixedTimeouts bool     `json:"fixedTimeouts,omitempty"`
	Steps         []Action `json:"steps"`
}

// Validate rejects schedules the executor cannot run deterministically
// or that are internally nonsensical. It does not enforce the
// generator's safety bounds — hand-written schedules may exceed them on
// purpose (that is how tests inject violations).
func (s Schedule) Validate() error {
	if s.B < 2 || s.D < 1 {
		return fmt.Errorf("nemesis: bad ID space b=%d d=%d", s.B, s.D)
	}
	if s.Nodes < 4 {
		return fmt.Errorf("nemesis: base network of %d nodes is below the minimum of 4", s.Nodes)
	}
	if s.Latency != "" && s.Latency != LatencyTransitStub {
		return fmt.Errorf("nemesis: unknown latency model %q", s.Latency)
	}
	for i, a := range s.Steps {
		switch a.Op {
		case OpJoinWave, OpLeave, OpCrash, OpSlow, OpPause, OpRestart, OpCrashStubs:
			if a.Count < 1 {
				return fmt.Errorf("nemesis: step %d (%s): count %d", i, a.Op, a.Count)
			}
		case OpPartition, OpByzantine:
			if a.Frac <= 0 || a.Frac >= 1 {
				return fmt.Errorf("nemesis: step %d (%s): frac %v outside (0,1)", i, a.Op, a.Frac)
			}
		case OpLoss:
			if a.Rate <= 0 || a.Rate >= 1 {
				return fmt.Errorf("nemesis: step %d (%s): rate %v outside (0,1)", i, a.Op, a.Rate)
			}
		case OpQuiesce:
		default:
			return fmt.Errorf("nemesis: step %d: unknown op %q", i, a.Op)
		}
		switch a.Op {
		case OpPartition, OpLoss, OpPause:
			if a.Dur <= 0 {
				return fmt.Errorf("nemesis: step %d (%s): non-positive dur %v", i, a.Op, a.Dur)
			}
		case OpSlow:
			if a.Dur < 0 {
				return fmt.Errorf("nemesis: step %d (%s): negative dur %v", i, a.Op, a.Dur)
			}
		case OpCrashStubs:
			if s.Latency != LatencyTransitStub {
				return fmt.Errorf("nemesis: step %d (%s): needs latency %q", i, a.Op, LatencyTransitStub)
			}
		}
	}
	return nil
}

// Marshal renders the schedule as indented JSON, the repro-file format.
func (s Schedule) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSchedule is the inverse of Marshal, with validation.
func ParseSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("nemesis: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// rng is the splitmix64 stream every schedule-level random choice draws
// from, keyed per (seed, step) so editing one step never shifts the
// randomness of the others — the property the shrinker depends on.
type rng struct{ state uint64 }

func newRNG(seed, step uint64) *rng {
	return &rng{state: seed ^ (step+1)*0x9e3779b97f4a7c15}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// between returns a uniform int in [lo, hi].
func (r *rng) between(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.intn(hi-lo+1)
}

func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func (r *rng) durBetween(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.next()%uint64(hi-lo))
}
