package oracle

import (
	"fmt"
	"sort"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/overlay"
	"hypercube/internal/splitmix"
)

// Check names an invariant class a Finding violates. The strings are
// stable: repro files record them and replays compare against them.
const (
	CheckConsistency   = "consistency"       // Definition 3.8 over all tables
	CheckReachable     = "reachability"      // sampled Definition 3.7 pairs
	CheckFalseDecl     = "false-declaration" // a live node declared failed
	CheckStuckJoin     = "stuck-join"        // a scheduled joiner never admitted
	CheckStuckLeave    = "stuck-leave"       // a graceful leave never completed
	CheckGuardHonest   = "guard-honest"      // guard quarantined a peer with no adversary marked
	CheckDeadLetter    = "dead-letter"       // messages dead-lettered with loss disabled
	CheckConverge      = "convergence"       // still inconsistent after the settle budget
	CheckPersist       = "persist-corrupt"   // a damaged dump was not detected, or persistence failed
	CheckPartitionMode = "partition-mode"    // a prober still in partition mode after the final settle
)

// Finding is one invariant violation the oracle detected.
type Finding struct {
	Check  string `json:"check"`
	Detail string `json:"detail"`
	// Step is the index of the schedule action after which the finding
	// surfaced, or -1 for the final audit.
	Step int `json:"step"`
}

func (f Finding) String() string {
	where := "final"
	if f.Step >= 0 {
		where = fmt.Sprintf("step %d", f.Step)
	}
	return fmt.Sprintf("[%s] %s: %s", where, f.Check, f.Detail)
}

// maxPerCheck bounds how many findings one audit reports per check: a
// globally inconsistent network can break thousands of entries, and the
// first few name the bug as well as all of them.
const maxPerCheck = 8

// Audit runs the global invariant oracle over a quiesced network:
// Definition 3.8 consistency over every table, plus reachPairs sampled
// ordered pairs routed via Definition 3.7 as an independent cross-check
// of the checker itself. The pair sample is drawn from a splitmix64
// stream over (seed, step), so the same run audits identically. The
// step index is stamped into the findings.
func Audit(net *overlay.Network, reachPairs int, seed uint64, step int) []Finding {
	var out []Finding
	violations := net.CheckConsistency()
	for i, v := range violations {
		if i == maxPerCheck {
			out = append(out, Finding{Check: CheckConsistency, Step: step,
				Detail: fmt.Sprintf("... and %d more violations", len(violations)-maxPerCheck)})
			break
		}
		out = append(out, Finding{Check: CheckConsistency, Detail: v.String(), Step: step})
	}

	members := net.Members()
	if reachPairs > 0 && len(members) >= 2 {
		ids := make([]id.ID, len(members))
		for i, r := range members {
			ids[i] = r.ID
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		// The sample draws from its own splitmix64 stream, keyed per
		// (seed, step) as the schedule's are but on a step key offset
		// by 0x5ea1, so audits replay bit-identically.
		key := uint64(step) + 0x5ea1
		rnd := splitmix.New(seed ^ (key+1)*0x9e3779b97f4a7c15)
		bad := 0
		for i := 0; i < reachPairs; i++ {
			src := ids[rnd.Intn(len(ids))]
			dst := ids[rnd.Intn(len(ids))]
			if src == dst {
				continue
			}
			if path, ok := core.Route(net, src, dst, net.Params()); !ok {
				bad++
				if bad <= maxPerCheck {
					out = append(out, Finding{Check: CheckReachable, Step: step,
						Detail: fmt.Sprintf("%v cannot reach %v (stopped after %v)", src, dst, path)})
				}
			}
		}
		if bad > maxPerCheck {
			out = append(out, Finding{Check: CheckReachable, Step: step,
				Detail: fmt.Sprintf("... and %d more unreachable pairs", bad-maxPerCheck)})
		}
	}
	return out
}

// AuditDeclarations converts the watcher's false positives into
// findings (empty when every declaration named a deliberately killed
// node).
func AuditDeclarations(w *DeclWatch, step int) []Finding {
	if w.FalsePositives() == 0 {
		return nil
	}
	return []Finding{{
		Check: CheckFalseDecl,
		Step:  step,
		Detail: fmt.Sprintf("%d live nodes declared failed (e.g. %v)",
			w.FalsePositives(), w.Examples()),
	}}
}
