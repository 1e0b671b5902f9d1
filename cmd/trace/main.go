// Command trace is the one trace tool: it produces a simulated join
// wave's event trace and reports on any trace. It only parses flags,
// opens files and endpoints, and prints; every number it shows is
// computed by internal/obs (Analyzer.Report), where the tests are.
//
//	trace wave -n 256 -m 192 -out wave.jsonl   # the paper's §5.2 experiment, traced
//	trace report wave.jsonl                    # join latency, message classes, liveness
//	trace wave -n 64 -m 48 -out - | trace report -
//	trace report node1.jsonl node2.jsonl       # per-node streams merge
//	trace report -node 1a2b3c4d fleet.jsonl    # one node's view only
//	trace report -require-joins 0.95 fleet.jsonl
//	trace report -scrape host1:8001,host2:8001 # live fleet: GET /trace + /metrics
//
// The simulator stamps events with its virtual clock and the TCP runtime
// with wall time since start, in one schema, so report reads hypercubed
// -trace, paper -trace and wave output alike. Every event carries the
// emitting node's identity, so concatenating per-node files is merging.
// Events without causal trace context are folded as they stream past
// (O(nodes) memory, so multi-GB soak traces are fine); traced events are
// kept and rebuilt into cross-node span trees: end-to-end join
// reconstruction with per-hop latency, probe round trips with per-node
// clock skew, anti-entropy and gossip round trees. With
// -require-joins the exit status enforces a reconstruction floor, which
// is how CI keeps the tracing pipeline honest.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
)

const usage = `usage: trace wave [-n N] [-m M] [-b B] [-d D] [-seed S] [-out path|-]
       trace report [-json] [-node id] [-require-joins 0.95] <trace.jsonl ... | ->
       trace report [-json] [-node id] [-require-joins 0.95] -scrape host:port,...
`

// errUsage is a command line already explained on stderr: exit 2.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values. Exit 2 is a
// usage error; exit 1 a wave that did not converge, an unreadable trace
// or a missed -require-joins floor.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet("trace "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	var err error
	switch args[0] {
	case "wave":
		err = wave(fs, args[1:], stdout, stderr)
	case "report":
		err = report(fs, args[1:], stdin, stdout)
	default:
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "trace %s: %v\n", args[0], err)
	return 1
}

// parse parses a subcommand's flags. A bad flag, which the flag package
// has already reported, becomes errUsage.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// wave runs a simulated join wave (N established nodes, M joining
// concurrently) with the event sink attached and writes the trace as
// JSONL. With -out - the trace goes to stdout and the summary to stderr,
// so it pipes into report.
func wave(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) error {
	var (
		n    = fs.Int("n", 256, "size of the initial consistent network")
		m    = fs.Int("m", 192, "number of concurrently joining nodes")
		b    = fs.Int("b", 16, "digit base")
		d    = fs.Int("d", 4, "digits per ID")
		seed = fs.Int64("seed", 1, "PRNG seed (IDs, bootstraps, latencies)")
		out  = fs.String("out", "wave.jsonl", "trace output path; - for stdout")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "trace wave: unexpected argument %q\n", fs.Arg(0))
		return errUsage
	}
	p := id.Params{B: *b, D: *d}
	if err := p.Validate(); err != nil {
		return err
	}

	var sink *obs.JSONL
	summary := stdout
	if *out == "-" {
		sink = obs.NewJSONL(stdout)
		summary = stderr
	} else {
		var err error
		sink, err = obs.NewJSONLFile(*out)
		if err != nil {
			return err
		}
	}

	res, err := overlay.RunWave(overlay.WaveConfig{
		Params: p, N: *n, M: *m, Seed: *seed, Sink: sink,
	})
	if err != nil {
		sink.Close()
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}

	fmt.Fprintf(summary, "wave: n=%d m=%d seed=%d (b=%d d=%d)\n", *n, *m, *seed, *b, *d)
	fmt.Fprintf(summary, "joined: %d/%d, all S-nodes: %v, consistent: %v\n",
		len(res.Records), *m, res.AllSNodes, res.Consistent())
	fmt.Fprintf(summary, "virtual duration: %v over %d sim events\n",
		res.VirtualDuration, res.Events)
	fmt.Fprintf(summary, "trace: %d events -> %s\n", sink.Emitted(), *out)
	if !res.AllSNodes || !res.Consistent() {
		return fmt.Errorf("wave did not converge to a consistent network")
	}
	return nil
}

func report(fs *flag.FlagSet, args []string, stdin io.Reader, stdout io.Writer) error {
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	node := fs.String("node", "", "analyze only events emitted by this node ID")
	scrape := fs.String("scrape", "", "comma-separated admin endpoints to scrape live (/trace + /metrics) instead of reading files")
	requireJoins := fs.Float64("require-joins", 0, "exit nonzero unless at least this fraction of joins reconstructs end to end (0 disables)")
	if err := parse(fs, args); err != nil {
		return err
	}

	a := obs.NewAnalyzer(*node)
	var metrics map[string]float64
	switch {
	case *scrape != "" && fs.NArg() != 0:
		return fmt.Errorf("-scrape and file arguments are mutually exclusive")
	case *scrape != "":
		metrics = make(map[string]float64)
		if err := scrapeFleet(a, metrics, strings.Split(*scrape, ",")); err != nil {
			return err
		}
	case fs.NArg() == 0:
		fs.Usage()
		return errUsage
	default:
		for _, path := range fs.Args() {
			if err := feedFile(a, path, stdin); err != nil {
				return err
			}
		}
	}

	rep := a.Report()
	rep.FleetMetrics = metrics
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(stdout, rep)
	}
	if *requireJoins > 0 {
		return rep.RequireJoins(*requireJoins)
	}
	return nil
}

// feedFile streams one JSONL trace ("-" is stdin) into the analyzer and
// closes it before the next one opens.
func feedFile(a *obs.Analyzer, path string, stdin io.Reader) error {
	r := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if err := obs.ScanJSONL(r, a.Feed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// scrapeFleet drains every node's trace ring into the analyzer and folds
// its metrics into the fleet-wide sums. Endpoints may omit the scheme.
func scrapeFleet(a *obs.Analyzer, metrics map[string]float64, endpoints []string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(url, hint string, read func(io.Reader) error) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s%s", url, resp.Status, hint)
		}
		return read(resp.Body)
	}
	for _, ep := range endpoints {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		if !strings.Contains(ep, "://") {
			ep = "http://" + ep
		}
		err := get(ep+"/trace", " (is the node running with -trace-ring?)", func(r io.Reader) error {
			var body struct {
				Events []obs.Event `json:"events"`
			}
			if err := json.NewDecoder(r).Decode(&body); err != nil {
				return err
			}
			for _, e := range body.Events {
				a.Feed(e)
			}
			return nil
		})
		if err == nil {
			err = get(ep+"/metrics", "", func(r io.Reader) error { return obs.FoldPrometheus(r, metrics) })
		}
		if err != nil {
			return fmt.Errorf("scrape %s: %w", ep, err)
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable text output.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func printReport(w io.Writer, rep *obs.Report) {
	fmt.Fprintf(w, "trace: %d events (%d traced) over %v from %d nodes, %d span trees\n",
		rep.Events, rep.TracedEvents, rep.Span, rep.Nodes, rep.Traces)
	fmt.Fprintf(w, "joins: %d spans, %d completed, %d restarts\n",
		len(rep.Joins), rep.Total.Count, rep.JoinRestarts)
	statsRow := func(name string, s obs.Stats) {
		fmt.Fprintf(w, "  %-16s %6d %12v %12v %12v %12v\n", name, s.Count, s.P50, s.P90, s.P99, s.Max)
	}
	statsHead := func(name, note string) {
		fmt.Fprintf(w, "  %-16s %6s %12s %12s %12s %12s%s\n", name, "count", "p50", "p90", "p99", "max", note)
	}
	if rep.Total.Count > 0 {
		statsHead("phase", "")
		statsRow("total", rep.Total)
		statsRow("copying", rep.Copying)
		statsRow("waiting", rep.Waiting)
		statsRow("notifying", rep.Notifying)
	}

	if len(rep.Sent) > 0 {
		fmt.Fprintf(w, "messages sent: %d big (table-carrying), %d small\n", rep.BigSent, rep.SmallSent)
		for _, typ := range sortedKeys(rep.Sent) {
			class := "small"
			if obs.BigMsg(typ) {
				class = "big"
			}
			fmt.Fprintf(w, "  %-16s %8d sent %8d received  (%s)\n",
				typ, rep.Sent[typ], rep.Received[typ], class)
		}
	}

	if rep.Retries+rep.Drops+rep.Resends+rep.GiveUps > 0 {
		fmt.Fprintf(w, "delivery: %d transport retries, %d drops; %d protocol resends, %d give-ups\n",
			rep.Retries, rep.Drops, rep.Resends, rep.GiveUps)
	}
	if rep.Probes+rep.Suspects+rep.Declared+rep.Repairs+rep.SyncRound > 0 {
		fmt.Fprintf(w, "liveness: %d probes (%d missed), %d suspects, %d declared failed\n",
			rep.Probes, rep.ProbeMiss, rep.Suspects, rep.Declared)
		fmt.Fprintf(w, "repair: %d repair jobs, %d anti-entropy rounds\n", rep.Repairs, rep.SyncRound)
	}
	if s := rep.ProbeRTT; s.Count > 0 {
		fmt.Fprintf(w, "probe RTT: %d samples, p50 %v, p90 %v, p99 %v, max %v\n",
			s.Count, s.P50, s.P90, s.P99, s.Max)
	}
	if rep.LatePongs+rep.Degraded+rep.DegradedCleared > 0 {
		fmt.Fprintf(w, "gray failure: %d late pongs learned, %d degraded flags raised, %d cleared\n",
			rep.LatePongs, rep.Degraded, rep.DegradedCleared)
	}
	if rep.GuardRejects+rep.GuardDrops+rep.Quarantines+rep.Busy > 0 {
		fmt.Fprintf(w, "guard: %d rejected, %d dropped unvalidated, %d quarantines (%d released), %d busy deferrals\n",
			rep.GuardRejects, rep.GuardDrops, rep.Quarantines, rep.Releases, rep.Busy)
	}

	if len(rep.Ops) > 0 {
		fmt.Fprintf(w, "operations:\n")
		for _, k := range sortedKeys(rep.Ops) {
			op := rep.Ops[k]
			fmt.Fprintf(w, "  %-14s %6d traces, %6d complete (%.1f%%)\n",
				k, op.Traces, op.Complete, 100*float64(op.Complete)/float64(op.Traces))
		}
	}
	if j := rep.JoinTrees; j.Attempted > 0 {
		fmt.Fprintf(w, "join trees: %d/%d reconstructed end-to-end (%.1f%%), %d restarts\n",
			j.Reconstructed, j.Attempted, 100*j.Ratio, j.Restarts)
		if len(j.DepthDist) > 0 {
			fmt.Fprintf(w, "  span depth:")
			for _, d := range sortedKeys(j.DepthDist) {
				fmt.Fprintf(w, " %d:%d", d, j.DepthDist[d])
			}
			fmt.Fprintln(w)
		}
		if len(j.HopsByMsg) > 0 || j.HopsExcluded > 0 {
			note := "   (raw: no probe data to solve clock skew)"
			if j.SkewCorrected {
				note = fmt.Sprintf("   (skew-corrected; %d hops with an unsolved clock excluded)", j.HopsExcluded)
			}
			statsHead("hop (msg)", note)
			for _, m := range sortedKeys(j.HopsByMsg) {
				statsRow(m, j.HopsByMsg[m])
			}
		}
	}
	if s := rep.ProbeTrees.RTT; s.Count > 0 {
		fmt.Fprintf(w, "probe trees: %d full round trips, RTT p50 %v, p90 %v, p99 %v, max %v\n",
			s.Count, s.P50, s.P90, s.P99, s.Max)
		skew := rep.ProbeTrees.Skew
		allZero := true
		for _, sk := range skew {
			allZero = allZero && sk == 0
		}
		if allZero {
			// The simulator's nodes share one virtual clock; a wall of
			// "node:0s" entries would bury the real signal.
			fmt.Fprintf(w, "  clock skew (vs anchor): all %d nodes at 0s\n", len(skew))
		} else {
			fmt.Fprintf(w, "  clock skew (vs anchor):")
			for _, n := range sortedKeys(skew) {
				fmt.Fprintf(w, " %s:%v", n, skew[n])
			}
			fmt.Fprintln(w)
		}
	}
	c := rep.Convergence
	fmt.Fprintf(w, "convergence: %d nodes reported a status, %d in_system, %d suspected, %d degraded, %d quarantined\n",
		c.Nodes, c.InSystem, c.Suspects, c.Degraded, c.Quarantined)

	if len(rep.FleetMetrics) > 0 {
		fmt.Fprintf(w, "fleet metrics (summed across nodes):\n")
		for _, n := range sortedKeys(rep.FleetMetrics) {
			fmt.Fprintf(w, "  %-44s %g\n", n, rep.FleetMetrics[n])
		}
	}
}
