// Command nemesis is the deterministic chaos-search driver: it sweeps a
// range of seeds, derives a composed fault schedule from each (join
// waves, graceful leaves, crashes, partitions, byzantine members, gray
// slowness, loss bursts, clock pauses, restart-from-persist — all over
// the virtual-clock simulator), executes it with the invariant oracle at
// every quiescence point, and on a violation delta-debugs the schedule
// down to a minimal repro.json. The same seed always produces the same
// schedule, the same verdicts, and the same shrunk repro, so
//
//	nemesis -replay repro.json
//
// re-executes a recorded failure bit-identically — the FoundationDB
// simulation-testing workflow for this codebase. Standard output is a
// function of the flags alone (the sweep's wall time goes to stderr) and
// is pinned by testdata/sweep.golden.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/nemesis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values. Exit 2 is a
// usage error; exit 1 a violation, a diverged replay or an I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nemesis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		b     = fs.Int("b", 16, "digit base")
		d     = fs.Int("d", 4, "digits per ID")
		n     = fs.Int("n", 32, "base network size per schedule")
		steps = fs.Int("steps", 8, "actions per generated schedule")
		seeds = fs.String("seeds", "", "seed range to sweep, e.g. 0..99 (inclusive); overrides -seed")
		seed  = fs.Uint64("seed", 1, "single seed to run")

		replay   = fs.String("replay", "", "re-execute a recorded repro.json and compare findings; exit 0 only on an exact match")
		out      = fs.String("out", ".", "directory that gets repro-<seed>.json for each shrunk failure (.gitignore covers them in the repository root)")
		noShrink = fs.Bool("no-shrink", false, "emit the full failing schedule instead of delta-debugging it")
		maxExec  = fs.Int("max-shrink-exec", 200, "execution budget per shrink")
		verbose  = fs.Bool("v", false, "log every schedule step")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "nemesis: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var opt nemesis.Options
	if *verbose {
		opt.Log = stdout
	}
	if *replay != "" {
		return runReplay(*replay, opt, stdout, stderr)
	}

	lo, hi, err := parseSeeds(*seeds, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "nemesis: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "nemesis: %v\n", err)
		return 1
	}
	p := id.Params{B: *b, D: *d}
	fmt.Fprintf(stdout, "chaos search: seeds %d..%d, %d nodes (b=%d, d=%d), %d steps per schedule\n\n", lo, hi, *n, *b, *d, *steps)

	failures := 0
	wall := time.Now()
	for s := lo; s <= hi; s++ {
		sched := nemesis.Generate(s, p, *n, *steps)
		res, _, err := nemesis.Execute(sched, opt)
		if err != nil {
			fmt.Fprintf(stderr, "nemesis: seed %d: %v\n", s, err)
			return 1
		}
		if !res.Failed() {
			fmt.Fprintf(stdout, "seed %4d: ok    (%2d steps, %3d nodes final, virtual %v)\n",
				s, len(sched.Steps), res.FinalSize, res.VirtualEnd.Round(time.Second))
			continue
		}
		failures++
		fmt.Fprintf(stdout, "seed %4d: FAIL  %d findings, first: %v\n", s, len(res.Findings), res.Findings[0])
		repro := nemesis.Repro{Schedule: sched, Findings: res.Findings}
		if !*noShrink {
			sh := nemesis.Shrink(sched, res.Findings[0].Check, *maxExec)
			if len(sh.Findings) > 0 {
				fmt.Fprintf(stdout, "           shrunk %d -> %d steps (nodes %d -> %d) in %d executions\n",
					len(sched.Steps), len(sh.Schedule.Steps), sched.Nodes, sh.Schedule.Nodes, sh.Executions)
				repro = nemesis.Repro{Schedule: sh.Schedule, Findings: sh.Findings}
			}
		}
		path := filepath.Join(*out, fmt.Sprintf("repro-%d.json", s))
		if err := nemesis.WriteRepro(path, repro); err != nil {
			fmt.Fprintf(stderr, "nemesis: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "           repro written to %s (replay with -replay)\n", path)
	}
	fmt.Fprintf(stdout, "\nswept %d schedules: %d violating\n", hi-lo+1, failures)
	fmt.Fprintf(stderr, "swept %d schedules in %v\n", hi-lo+1, time.Since(wall).Round(time.Millisecond))
	if failures > 0 {
		return 1
	}
	return 0
}

func runReplay(path string, opt nemesis.Options, stdout, stderr io.Writer) int {
	r, err := nemesis.LoadRepro(path)
	if err != nil {
		fmt.Fprintf(stderr, "nemesis: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "replaying %s: seed %d, %d nodes, %d steps, expecting %d findings\n",
		path, r.Schedule.Seed, r.Schedule.Nodes, len(r.Schedule.Steps), len(r.Findings))
	got, match, err := nemesis.Replay(r, opt)
	if err != nil {
		fmt.Fprintf(stderr, "nemesis: %v\n", err)
		return 1
	}
	for _, f := range got {
		fmt.Fprintf(stdout, "  %v\n", f)
	}
	if !match {
		fmt.Fprintf(stderr, "nemesis: replay DIVERGED from the recording (recorded %d findings, replayed %d) — the repro no longer reproduces\n",
			len(r.Findings), len(got))
		return 1
	}
	fmt.Fprintf(stdout, "replay matches the recording exactly (%d findings)\n", len(got))
	return 0
}

// parseSeeds interprets "lo..hi"; empty means the single -seed value.
func parseSeeds(spec string, single uint64) (uint64, uint64, error) {
	if spec == "" {
		return single, single, nil
	}
	parts := strings.SplitN(spec, "..", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -seeds %q, want lo..hi", spec)
	}
	lo, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", spec, err)
	}
	hi, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q: %v", spec, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("bad -seeds %q: hi < lo", spec)
	}
	return lo, hi, nil
}
