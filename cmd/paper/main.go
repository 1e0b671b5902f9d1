// Command paper regenerates the evaluation of Liu & Lam (ICDCS 2003)
// and this repository's evaluation of what its §7 leaves as future work
// — EXPERIMENTS.md E1–E18 — one subcommand per table, figure or
// scenario:
//
//	paper fig15a        # E1: Theorem-5 bound curves of Figure 15(a)
//	paper fig15b        # E2: simulated CDFs of Figure 15(b), paper scale
//	paper table         # E3/E4: §5.2 averages vs Theorems 3, 4 and 5
//	paper consistency   # E5: Theorems 1-3 over an ID-space grid
//	paper fig1          # E6: Figure 1's neighbor table of node 21233, and a route
//	paper cset          # E7: Figure 2's C-set tree, template and realization
//	paper baseline      # E8: §1 comparison with the multicast join
//	paper msgsize       # E9: §6.2 size reductions (-wire: encoded bytes, E16)
//	paper netinit       # E10: §6.1 initialization from one node, batch by batch
//	paper topo          # the transit-stub topology under E2/E3
//	paper workload      # E11: random churn, consistency checked per operation
//	paper churn         # E11: §7 leaves, crash recovery, table optimization
//	paper selfheal      # E12: the crash phase with no recovery oracle
//	paper partition     # E13: split, held declarations, heal, reconvergence
//	paper byzantine     # E15: hostile members under 10% loss
//	paper flashcrowd    # E17: a join wave through three gateways (-small -trace: E19)
//	paper massfail      # E17: whole stub domains crash at one instant
//	paper restart       # E17: every member restarted from its persisted dump
//	paper gray          # E18: slow-but-alive members, adaptive vs fixed timeouts
//	paper all           # all nineteen; fig15b and table share one set of waves
//
// Every simulated join wave is held to Theorems 1-3 as it runs, and
// every scenario to its verdict (no false declaration, no stuck joiner,
// reconvergence, a fault model that engaged), so a zero exit status is
// itself a result. This file is dispatch, flags and exit codes;
// experiments.go holds E1-E11 and scenarios.go E11-E18, each experiment
// with its grid, sizes and seeds as data beside it. E17 and E18 are data
// outright: committed schedules, testdata/<sub>[-small].json, that the
// nemesis executor runs on its stack and judges with its oracle; a run
// with findings exits 1 and leaves a repro for `nemesis -replay`.
// Output is deterministic given -seed (wall time goes to stderr) and is
// pinned byte for byte by testdata/*.golden; refresh one with
// `go run ./cmd/paper <sub> > cmd/paper/testdata/<sub>.golden`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hypercube/internal/obs"
)

type experiment struct {
	name, flags, title string
	run                func(*env) error
}

// experiments is the dispatch table, in the order `all` runs them.
// flags names the options a subcommand reads; any other is refused.
var experiments = []experiment{
	{"fig15a", "", "E1, Figure 15(a): upper bound of E(J), the number of JoinNotiMsg per join (Theorem 5)", (*env).fig15a},
	{"fig15b", "-seed -small", "E2, Figure 15(b): CDF of the number of JoinNotiMsg sent by a joining node", (*env).fig15b},
	{"table", "-seed -small", "E3/E4, §5.2: simulated averages against Theorems 3, 4 and 5", (*env).table},
	{"consistency", "", "E5, Theorems 1-3 over an ID-space grid", (*env).consistency},
	{"fig1", "-seed", "E6, Figure 1: node 21233's neighbor table, built by §6.1 joins", (*env).fig1},
	{"cset", "-seed -b -d -v -w", "E7, Figure 2: C-set tree template and realization", (*env).cset},
	{"baseline", "", "E8, §1: the join protocol against the multicast join", (*env).baseline},
	{"msgsize", "-seed -wire", "E9, §6.2: message-size reductions", (*env).msgsize},
	{"netinit", "-seed", "E10, §6.1: a network initialized from one node by concurrent joins", (*env).netinit},
	{"topo", "-seed -small", "transit-stub topology under E2/E3", (*env).topo},
	{"workload", "-seed -quiet", "E11, random churn with Definition 3.8 checked after every operation", (*env).workload},
	{"churn", "-seed -small -trace", "E11, §7: concurrent leaves, crash recovery by oracle, table optimization", (*env).churn},
	{"selfheal", "-seed -trace", "E12: unannounced crashes, detected and repaired by the survivors", (*env).selfheal},
	{"partition", "-seed -trace", "E13: partition, heal and time to reconvergence", (*env).partition},
	{"byzantine", "-seed -trace", "E15: joins among hostile members under 10% loss", (*env).byzantine},
	{"flashcrowd", "-seed -small -with-byzantine -trace", "E17: simultaneous joins through three gateways", func(x *env) error { return x.e17("flashcrowd") }},
	{"massfail", "-seed -with-byzantine -trace", "E17: correlated crash of whole stub domains", func(x *env) error { return x.e17("massfail") }},
	{"restart", "-seed -with-byzantine -trace", "E17: every member restarted from its persisted table and sampled peers", func(x *env) error { return x.e17("restart") }},
	{"gray", "-seed -small -with-byzantine -trace", "E18: gray degradation, adaptive against fixed timeouts", (*env).gray},
}

// allFlags are the options `all` hands to every experiment that reads them.
const allFlags = "-seed -small"

// env is one invocation: where to print, the options, and what the
// experiments share.
type env struct {
	out, log io.Writer

	seed        int64
	seedSet     bool // -seed was given: it overrides the seed a scenario documents
	small       bool
	b, d        int
	v, w        string
	wire, quiet bool
	withByz     bool
	trace       string
	sink        obs.Sink // the open -trace file, or nil

	waves  []*wave // the §5.2 waves, run once for fig15b and table
	breach error   // first theorem a wave broke, see (*env).wave
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values. Exit 2 is a
// usage error; exit 1 an experiment that failed or falsified a theorem.
func run(args []string, stdout, stderr io.Writer) int {
	x := &env{out: stdout, log: stderr}
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&x.seed, "seed", 1, "simulation seed; unless given, byzantine runs at its documented 21 and the E17/E18 schedules at their recorded one")
	fs.BoolVar(&x.small, "small", false, "fig15b, table, topo: 1/16 of the paper's n and m on the 248-router topology; churn, flashcrowd, gray: the CI size")
	fs.IntVar(&x.b, "b", 8, "cset: digit base")
	fs.IntVar(&x.d, "d", 5, "cset: digits per ID")
	fs.StringVar(&x.v, "v", "72430,10353,62332,13141,31701", "cset: existing node IDs, comma separated")
	fs.StringVar(&x.w, "w", "10261,47051,00261", "cset: joining node IDs, comma separated")
	fs.BoolVar(&x.wire, "wire", false, "msgsize: encoded bytes per message kind next to the WireSize estimate")
	fs.BoolVar(&x.quiet, "quiet", false, "workload: summary only, no per-operation log")
	fs.BoolVar(&x.withByz, "with-byzantine", false, "E17, E18: compose E15's fault model in (10% of the members hostile)")
	fs.StringVar(&x.trace, "trace", "", "E11-E18: write every protocol event, causally traced, to this JSONL `file` (read it with cmd/trace report)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: paper <subcommand> [flags]")
		for _, e := range experiments {
			fmt.Fprintf(stderr, "  %-12s %s  [%s]\n", e.name, e.title, e.flags)
		}
		fmt.Fprintf(stderr, "  %-12s every experiment above  [%s]\n", "all", allFlags)
		fs.PrintDefaults()
	}

	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	todo, accepted := experiments, allFlags
	if args[0] != "all" {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == args[0] })
		if i < 0 {
			fs.Usage()
			return 2
		}
		todo, accepted = experiments[i:i+1], experiments[i].flags
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	refused := fs.Args()
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(accepted), "-"+f.Name) {
			refused = append(refused, "-"+f.Name)
		}
		x.seedSet = x.seedSet || f.Name == "seed"
	})
	if len(refused) > 0 {
		fmt.Fprintf(stderr, "paper %s: does not take %s\n", args[0], strings.Join(refused, " "))
		fs.Usage()
		return 2
	}

	var jsonl *obs.JSONL
	if x.trace != "" {
		var err error
		if jsonl, err = obs.NewJSONLFile(x.trace); err != nil {
			fmt.Fprintf(stderr, "paper %s: %v\n", args[0], err)
			return 1
		}
		x.sink = jsonl
	}
	code := 0
	for _, e := range todo {
		fmt.Fprintf(stdout, "== %s — %s ==\n\n", e.name, e.title)
		err := e.run(x)
		if err == nil {
			err = x.breach
		}
		if err != nil {
			fmt.Fprintf(stderr, "paper %s: %v\n", e.name, err)
			code = 1
			break
		}
		fmt.Fprintln(stdout)
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			fmt.Fprintf(stderr, "paper %s: %v\n", args[0], err)
			code = 1
		}
	}
	return code
}
