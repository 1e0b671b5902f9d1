package nemesis

import (
	"time"

	"hypercube/internal/nemesis/oracle"
)

// ShrinkResult is a minimized schedule plus the findings it reproduces.
type ShrinkResult struct {
	Schedule Schedule         `json:"schedule"`
	Findings []oracle.Finding `json:"findings"`
	// Executions is how many schedule runs the search consumed.
	Executions int `json:"executions"`
}

// Shrink reduces a violating schedule to a (locally) minimal one that
// still reproduces a finding of the target check, by delta debugging:
// first ddmin over the action list (drop halves, then quarters, down to
// single actions), then per-action parameter shrinking (halve counts,
// durations, and gaps; drop the corrupt flag), then a halving pass over
// the base network size. Each candidate is judged by re-executing it —
// determinism makes one execution a definitive answer — and the search
// is bounded by maxExec runs (0 = default 200).
//
// The target is the Check of the finding being chased (normally the
// first finding of the original run); any finding of that check counts
// as a reproduction, since step indices shift while shrinking.
func Shrink(s Schedule, target string, maxExec int) ShrinkResult {
	if maxExec <= 0 {
		maxExec = 200
	}
	sh := &shrinker{target: target, budget: maxExec}

	best, findings := s, []oracle.Finding(nil)
	if got, ok := sh.reproduces(s); !ok {
		// The caller's schedule does not reproduce the target — nothing
		// to shrink.
		return ShrinkResult{Schedule: s, Executions: sh.executions}
	} else {
		findings = got
	}

	// Pass 1: ddmin over the step list.
	steps := best.Steps
	granularity := 2
	for len(steps) > 1 && granularity <= len(steps) && sh.budget > 0 {
		chunk := (len(steps) + granularity - 1) / granularity
		reduced := false
		for lo := 0; lo < len(steps); lo += chunk {
			hi := lo + chunk
			if hi > len(steps) {
				hi = len(steps)
			}
			cand := best
			cand.Steps = append(append([]Action{}, steps[:lo]...), steps[hi:]...)
			if len(cand.Steps) == 0 {
				continue
			}
			if got, ok := sh.reproduces(cand); ok {
				steps = cand.Steps
				best = cand
				findings = got
				reduced = true
				granularity = 2
				break
			}
		}
		if !reduced {
			granularity *= 2
		}
	}

	// Pass 2: per-action parameter shrinking, repeated to fixpoint.
	for changed := true; changed && sh.budget > 0; {
		changed = false
		for i := range best.Steps {
			for _, cand := range paramShrinks(best, i) {
				if got, ok := sh.reproduces(cand); ok {
					best = cand
					findings = got
					changed = true
					break
				}
			}
		}
	}

	// Pass 3: shrink the base network.
	for best.Nodes/2 >= genMinNodes && sh.budget > 0 {
		cand := best
		cand.Nodes = best.Nodes / 2
		got, ok := sh.reproduces(cand)
		if !ok {
			break
		}
		best = cand
		findings = got
	}

	return ShrinkResult{Schedule: best, Findings: findings, Executions: sh.executions}
}

type shrinker struct {
	target     string
	budget     int
	executions int
}

// reproduces executes the candidate and reports whether any finding of
// the target check survives.
func (sh *shrinker) reproduces(s Schedule) ([]oracle.Finding, bool) {
	if sh.budget <= 0 {
		return nil, false
	}
	sh.budget--
	sh.executions++
	res, err := Execute(s, Options{})
	if err != nil {
		return nil, false
	}
	for _, f := range res.Findings {
		if f.Check == sh.target {
			return res.Findings, true
		}
	}
	return nil, false
}

// paramShrinks enumerates smaller variants of step i, most aggressive
// first.
func paramShrinks(s Schedule, i int) []Schedule {
	a := s.Steps[i]
	var variants []Action
	if a.Count > 1 {
		variants = append(variants, with(a, func(a *Action) { a.Count /= 2 }))
	}
	if a.Dur > 500*time.Millisecond {
		variants = append(variants, with(a, func(a *Action) { a.Dur /= 2 }))
	}
	if a.Gap > 100*time.Millisecond {
		variants = append(variants, with(a, func(a *Action) { a.Gap /= 2 }))
	}
	if a.Corrupt {
		variants = append(variants, with(a, func(a *Action) { a.Corrupt = false }))
	}
	out := make([]Schedule, 0, len(variants))
	for _, v := range variants {
		cand := s
		cand.Steps = append([]Action{}, s.Steps...)
		cand.Steps[i] = v
		out = append(out, cand)
	}
	return out
}

func with(a Action, f func(*Action)) Action {
	f(&a)
	return a
}
