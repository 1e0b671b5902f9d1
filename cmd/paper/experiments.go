package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"hypercube/internal/analysis"
	"hypercube/internal/baseline"
	"hypercube/internal/core"
	"hypercube/internal/cset"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/overlay"
	"hypercube/internal/stats"
	"hypercube/internal/table"
	"hypercube/internal/topology"
)

// wave is one concurrent join wave and what it cost its joiners.
type wave struct {
	*overlay.WaveResult
	maxSetup int // largest CpRstMsg+JoinWaitMsg count of one join (Theorem 3: <= d+1)
	speNoti  int // SpeNotiMsg sent by all joiners
	bytes    int // bytes sent by all joiners
}

// wave runs one join wave and holds it to the paper's theorems: every
// joiner ends an S-node (Theorem 2) in a consistent network (Theorem 1)
// having sent at most d+1 CpRstMsg and JoinWaitMsg (Theorem 3). The
// first breach is kept rather than returned, so that an experiment
// prints its whole table before the command fails.
func (x *env) wave(cfg overlay.WaveConfig) (*wave, error) {
	res, err := overlay.RunWave(cfg)
	if err != nil {
		return nil, err
	}
	wv := &wave{WaveResult: res}
	for _, rec := range res.Records {
		wv.maxSetup = max(wv.maxSetup, rec.CpRstSent+rec.JoinWaitSent)
		wv.speNoti += rec.SpeNotiSent
		wv.bytes += rec.BytesSent
	}
	if err := wv.theorems(); err != nil && x.breach == nil {
		x.breach = fmt.Errorf("wave b=%d d=%d n=%d m=%d seed=%d: %w",
			cfg.Params.B, cfg.Params.D, cfg.N, cfg.M, cfg.Seed, err)
	}
	return wv, nil
}

func (wv *wave) theorems() error {
	switch bound := analysis.Theorem3Bound(wv.Config.Params.D); {
	case !wv.AllSNodes || len(wv.Records) != wv.Config.M:
		return fmt.Errorf("Theorem 2 violated: %d of %d joiners became S-nodes", len(wv.Records), wv.Config.M)
	case !wv.Consistent():
		return fmt.Errorf("Theorem 1 violated: %d inconsistent entries, first %v", len(wv.Violations), wv.Violations[0])
	case wv.maxSetup > bound:
		return fmt.Errorf("Theorem 3 violated: a join sent %d CpRstMsg+JoinWaitMsg, bound %d", wv.maxSetup, bound)
	}
	return nil
}

// thm5 is Theorem 5's upper bound on the wave's mean JoinNotiMsg per join.
func (wv *wave) thm5() float64 {
	c := wv.Config
	return analysis.UpperBoundJoinNoti(c.Params.B, c.Params.D, c.N, c.M)
}

func (x *env) fig15a() error {
	series := analysis.Figure15a(analysis.PaperFigure15aCurves(), analysis.PaperFigure15aN())
	_, err := fmt.Fprint(x.out, stats.FormatTable(series, "n"))
	return err
}

// paperSetups are the four simulations of §5.2, (n, d) with b=16:
// paperJoiners nodes join n existing ones at t=0 over the 8320-router
// transit-stub topology. -small divides n and m by smallScale and uses
// the 248-router topology.
var paperSetups = []struct{ n, d int }{{3096, 8}, {3096, 40}, {7192, 8}, {7192, 40}}

const (
	paperJoiners = 1000
	smallScale   = 16
	cdfMaxX      = 50 // right end of Figure 15(b)'s x axis
)

// paperWaves runs the four §5.2 waves once per invocation; fig15b and
// table are two views of them. Each must also come in under its
// Theorem-5 bound, the comparison the paper makes in its §5.2 table.
func (x *env) paperWaves() ([]*wave, error) {
	if x.waves != nil {
		return x.waves, nil
	}
	topoCfg, scale := topology.Default8320(x.seed), 1
	if x.small {
		topoCfg, scale = topology.Small(x.seed), smallScale
	}
	var waves []*wave
	for _, su := range paperSetups {
		start := time.Now()
		// A fresh topology per wave: RunWave attaches its hosts to it.
		topo, err := topology.Generate(topoCfg)
		if err != nil {
			return nil, err
		}
		n, m := su.n/scale, paperJoiners/scale
		wv, err := x.wave(overlay.WaveConfig{
			Params: id.Params{B: 16, D: su.d}, N: n, M: m, Seed: x.seed, Topology: topo,
		})
		if err != nil {
			return nil, err
		}
		if mean, bound := wv.MeanJoinNoti(), wv.thm5(); mean >= bound && x.breach == nil {
			x.breach = fmt.Errorf("wave n=%d m=%d d=%d: mean JoinNotiMsg %.3f is not below the Theorem-5 bound %.3f", n, m, su.d, mean, bound)
		}
		fmt.Fprintf(x.log, "paper: wave n=%d m=%d d=%d: %v wall\n", n, m, su.d, time.Since(start).Round(time.Millisecond))
		waves = append(waves, wv)
	}
	x.waves = waves
	return waves, nil
}

func (x *env) fig15b() error {
	waves, err := x.paperWaves()
	if err != nil {
		return err
	}
	fmt.Fprintf(x.out, "topology: %d routers (transit-stub), all joins start at t=0\n\n", waves[0].Config.Topology.RouterCount())
	var series []stats.Series
	for _, wv := range waves {
		c := wv.Config
		label := fmt.Sprintf("n=%d, m=%d, b=16, d=%d", c.N, c.M, c.Params.D)
		series = append(series, stats.Series{Label: label, Points: stats.NewCDF(wv.JoinNoti).Points(0, cdfMaxX)})
		fmt.Fprintf(x.out, "%-28s mean JoinNotiMsg %.3f (Theorem 5 bound %.3f), consistent %v, %d events\n",
			label, wv.MeanJoinNoti(), wv.thm5(), wv.Consistent() && wv.AllSNodes, wv.Events)
	}
	_, err = fmt.Fprint(x.out, "\n", stats.FormatTable(series, "#JoinNotiMsg"))
	return err
}

// table also prints the per-type message breakdown of the last setup:
// the small-message accounting the paper defers to its companion TR.
func (x *env) table() error {
	waves, err := x.paperWaves()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n\td\tm\tavg JoinNoti\tThm5 bound\tThm4 E(J)\tmax CpRst+JoinWait\tThm3 bound\tSpeNoti/join\tconsistent")
	for _, wv := range waves {
		c := wv.Config
		fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%.3f\t%.3f\t%d\t%d\t%.4f\t%v\n",
			c.N, c.Params.D, c.M,
			wv.MeanJoinNoti(),
			wv.thm5(),
			analysis.ExpectedJoinNoti(16, c.Params.D, c.N),
			wv.maxSetup,
			analysis.Theorem3Bound(c.Params.D),
			float64(wv.speNoti)/float64(len(wv.Records)),
			wv.Consistent() && wv.AllSNodes,
		)
	}
	fmt.Fprintln(w, "\npaper §5.2: averages 6.117, 6.051, 5.026, 5.399; bounds 8.001, 8.001, 6.986, 6.986")
	fmt.Fprintln(w, "\nper-join message breakdown (last setup, all types, sent by joiners):")
	last := waves[len(waves)-1]
	for _, typ := range msg.Types() {
		if v := last.SentPerJoin[typ]; v > 0 {
			fmt.Fprintf(w, "  %v\t%.3f\n", typ, v)
		}
	}
	return w.Flush()
}

// consistencyGrid is swept with consistencySeeds × (consistencyN
// existing + consistencyM concurrent joiners) per ID space.
var (
	consistencyGrid  = []id.Params{{B: 2, D: 12}, {B: 4, D: 6}, {B: 8, D: 5}, {B: 16, D: 8}, {B: 16, D: 40}}
	consistencySeeds = []int64{13, 7932, 15851, 23770, 31689}
)

const consistencyN, consistencyM = 200, 100

func (x *env) consistency() error {
	w := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "b\td\tn\tm\ttrials\tall S-nodes\tconsistent\tThm3 ok\tmean JoinNoti\tp99 JoinNoti")
	for _, p := range consistencyGrid {
		allS, consistent, thm3 := true, true, true
		var joinNoti []int
		for _, seed := range consistencySeeds {
			wv, err := x.wave(overlay.WaveConfig{Params: p, N: consistencyN, M: consistencyM, Seed: seed})
			if err != nil {
				return err
			}
			allS = allS && wv.AllSNodes
			consistent = consistent && wv.Consistent()
			thm3 = thm3 && wv.maxSetup <= analysis.Theorem3Bound(p.D)
			joinNoti = append(joinNoti, wv.JoinNoti...)
		}
		sum := stats.Summarize(joinNoti)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%.3f\t%.1f\n",
			p.B, p.D, consistencyN, consistencyM, len(consistencySeeds), allS, consistent, thm3, sum.Mean, sum.P99)
	}
	if x.breach == nil {
		fmt.Fprintln(w, "\nall configurations satisfied Theorems 1, 2 and 3")
	}
	return w.Flush()
}

// fig1 builds a network in Figure 1's ID space by sequential §6.1 joins,
// fig1Members random IDs with the figure's node 21233 joining last, and
// prints 21233's table in the figure's layout.
const fig1Node, fig1Members = "21233", 16

func (x *env) fig1() error {
	p := id.Params{B: 4, D: 5}
	rng := rand.New(rand.NewSource(x.seed))
	self := id.MustParse(p, fig1Node)
	members := overlay.RandomRefs(p, fig1Members-1, rng, map[id.ID]bool{self: true})
	members = append(members, table.Ref{ID: self, Addr: "sim://" + fig1Node})
	net := overlay.New(overlay.Config{Params: p})
	if err := net.BuildByJoins(members, rng); err != nil {
		return err
	}
	tbl, _ := net.TableOf(self)
	fmt.Fprintf(x.out, "%d nodes joined one by one from a single seed (§6.1), node %v last\n\n%v\n", net.Size(), self, tbl)

	pairs := net.Size() * (net.Size() - 1)
	if v := net.CheckConsistency(); len(v) != 0 {
		return fmt.Errorf("Definition 3.8 violated: %d entries, first %v", len(v), v[0])
	}
	if bad := netcheck.CheckAllPairsReachability(p, net.Tables()); len(bad) != 0 {
		return fmt.Errorf("%d of %d ordered pairs unroutable, e.g. %v", len(bad), pairs, bad[0])
	}
	var longest []id.ID // the first of node 21233's longest routes, in join order
	for _, m := range members {
		if path, _ := core.Route(net, self, m.ID, p); len(path) > len(longest) {
			longest = path
		}
	}
	fmt.Fprintf(x.out, "route %v -> %v, one more suffix digit per hop: %v\n", self, longest[len(longest)-1], longest)
	fmt.Fprintf(x.out, "Definition 3.8: satisfied; all %d ordered pairs route within d=%d hops\n", pairs, p.D)
	return nil
}

// cset prints one C-set tree per notification suffix of the joiners W,
// as the template C(V,W) and as realized by running the join protocol,
// and checks conditions (1)-(3) of §3.3 on each.
func (x *env) cset() error {
	p := id.Params{B: x.b, D: x.d}
	if err := p.Validate(); err != nil {
		return err
	}
	v, err := parseIDs(p, x.v)
	if err != nil {
		return fmt.Errorf("-v: %w", err)
	}
	w, err := parseIDs(p, x.w)
	if err != nil {
		return fmt.Errorf("-w: %w", err)
	}

	reg := netcheck.NewSuffixRegistry(p, v)
	groups := make(map[id.Suffix][]id.ID)
	for _, j := range w {
		omega := cset.NotifySuffix(p, reg, j)
		groups[omega] = append(groups[omega], j)
		fmt.Fprintf(x.out, "node %v: notification set V_%v\n", j, omega)
	}
	suffixes := make([]id.Suffix, 0, len(groups))
	for omega := range groups {
		suffixes = append(suffixes, omega)
	}
	slices.SortFunc(suffixes, func(a, b id.Suffix) int { return strings.Compare(a.String(), b.String()) })

	rng := rand.New(rand.NewSource(x.seed))
	net := overlay.New(overlay.Config{
		Params:  p,
		Latency: overlay.HashedUniformLatency(5*time.Millisecond, 80*time.Millisecond, x.seed),
	})
	vRefs := make([]table.Ref, len(v))
	for i, e := range v {
		vRefs[i] = table.Ref{ID: e, Addr: "sim://" + e.String()}
	}
	net.BuildDirect(vRefs, rng)
	for _, j := range w {
		net.ScheduleJoin(table.Ref{ID: j, Addr: "sim://" + j.String()}, vRefs[rng.Intn(len(vRefs))], 0)
	}
	net.Run()
	if violations := net.CheckConsistency(); len(violations) != 0 {
		return fmt.Errorf("network inconsistent after joins: %v", violations[0])
	}

	violated := 0
	for _, omega := range suffixes {
		template := cset.Template(p, groups[omega], omega)
		realized := cset.Realized(p, v, groups[omega], omega, net.Tables())
		fmt.Fprintf(x.out, "\n== C-set tree rooted at V_%v ==\n", omega)
		fmt.Fprint(x.out, "template C(V,W):\n", indent(template.String()))
		fmt.Fprint(x.out, "realized cset(V,W) after protocol run:\n", indent(realized.String()))
		problems := cset.VerifyConditions(p, template, realized, v, groups[omega], net.Tables())
		if len(problems) == 0 {
			fmt.Fprintln(x.out, "conditions (1), (2), (3) of §3.3: satisfied")
		}
		for _, pr := range problems {
			fmt.Fprintf(x.out, "VIOLATED %v\n", pr)
		}
		violated += len(problems)
	}
	if violated > 0 {
		return fmt.Errorf("%d violations of the §3.3 conditions", violated)
	}
	return nil
}

func parseIDs(p id.Params, list string) ([]id.ID, error) {
	var out []id.ID
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		e, err := id.Parse(p, s)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no IDs in %q", list)
	}
	return out, nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}

// The §1 comparison runs both protocols on the same wave per seed; a
// small ID space makes same-suffix joins, and so contention, common.
var (
	baselineParams = id.Params{B: 4, D: 4}
	baselineSeeds  = []int64{7, 108, 209, 310, 411}
)

const baselineN, baselineM = 100, 80

func (x *env) baseline() error {
	w := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "seed\tsystem\tmessages\tpeak pending state on existing nodes\tviolations\tlost joiners")
	for _, seed := range baselineSeeds {
		ours, err := x.wave(overlay.WaveConfig{Params: baselineParams, N: baselineN, M: baselineM, Seed: seed})
		if err != nil {
			return err
		}
		// Events are messages delivered, which on a reliable network are
		// the messages sent: comparable to the baseline's TotalMessages.
		// The state column is by construction, not a measurement: the
		// protocol queues joiners (Qj) on joining T-nodes only.
		fmt.Fprintf(w, "%d\tLiu-Lam join\t%d\tnone (by design: Qj on joining T-nodes only)\t%d\t%d\n",
			seed, ours.Events, len(ours.Violations), baselineM-len(ours.Records))

		base, err := baseline.RunWave(baseline.Config{Params: baselineParams, N: baselineN, M: baselineM, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\tmulticast join\t%d\t%d (max %d on one node)\t%d\t%d\n",
			seed, base.TotalMessages, base.PeakPendingState, base.PeakPendingPerNode,
			base.Violations, base.LostJoiners)
	}
	fmt.Fprintln(w, "\nLiu-Lam keeps join state on joining nodes only; the multicast baseline parks")
	fmt.Fprintln(w, "pending records on established nodes and loses updates under contention.")
	return w.Flush()
}

// The §6.2 ablation joins msgsizeM nodes to msgsizeN under each
// combination of the two reductions.
var (
	msgsizeParams   = id.Params{B: 16, D: 8}
	msgsizeVariants = []struct {
		name string
		opts core.Options
	}{
		{"full tables (baseline)", core.Options{}},
		{"level-range reduction", core.Options{ReduceLevels: true}},
		{"bit-vector replies", core.Options{BitVector: true}},
		{"both reductions (§6.2)", core.Options{ReduceLevels: true, BitVector: true}},
	}
)

const msgsizeN, msgsizeM = 500, 200

func (x *env) msgsize() error {
	if x.wire {
		return wireReport(x.out, msgsizeParams)
	}
	w := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\ttotal bytes\tbytes/join\tmessages\tconsistent")
	full := 0
	for i, variant := range msgsizeVariants {
		wv, err := x.wave(overlay.WaveConfig{
			Params: msgsizeParams, N: msgsizeN, M: msgsizeM, Seed: x.seed, Opts: variant.opts,
		})
		if err != nil {
			return err
		}
		note := ""
		if i == 0 {
			full = wv.bytes
		} else if full > 0 {
			note = fmt.Sprintf(" (%.1f%% of baseline)", 100*float64(wv.bytes)/float64(full))
		}
		fmt.Fprintf(w, "%s\t%d%s\t%d\t%d\t%v\n",
			variant.name, wv.bytes, note, wv.bytes/msgsizeM, wv.Events, wv.Consistent() && wv.AllSNodes)
	}
	return w.Flush()
}

// netinit is §6.1 initialization: one seed node, then netinitJoiners
// joiners in concurrent batches of 1, 2, 4, ..., each through a random
// established node, with Definition 3.8 checked after every batch.
const netinitJoiners = 255

func (x *env) netinit() error {
	p := id.Params{B: 16, D: 8}
	rng := rand.New(rand.NewSource(x.seed))
	refs := overlay.RandomRefs(p, netinitJoiners+1, rng, nil)
	net := overlay.New(overlay.Config{Params: p})
	net.AddSeed(refs[0])
	fmt.Fprintf(x.out, "seed node %v\n\n", refs[0].ID)

	w := tabwriter.NewWriter(x.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "concurrent joins\tnetwork size\tmessages delivered\tconsistent")
	for lo := 1; lo < len(refs); lo *= 2 { // batch refs[lo:2lo] joins through refs[:lo]
		hi := min(2*lo, len(refs))
		before, now := net.Delivered(), net.Engine().Now()
		for _, ref := range refs[lo:hi] {
			net.ScheduleJoin(ref, refs[rng.Intn(lo)], now)
		}
		net.Run()
		v := net.CheckConsistency()
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\n", hi-lo, net.Size(), net.Delivered()-before, len(v) == 0)
		if len(v) != 0 {
			w.Flush()
			return fmt.Errorf("batch of %d joins left %d inconsistent entries, first %v", hi-lo, len(v), v[0])
		}
	}
	fmt.Fprintf(w, "\n%d nodes from one seed by the join protocol alone: %d messages, %.1f per node\n",
		net.Size(), net.Delivered(), float64(net.Delivered())/float64(net.Size()))
	return w.Flush()
}

const topoHosts, topoPairs = 8192, 20000 // hosts attached, host pairs sampled for latency

func (x *env) topo() error {
	cfg := topology.Default8320(x.seed)
	if x.small {
		cfg = topology.Small(x.seed)
	}
	topo, err := topology.Generate(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(x.seed + 1))
	topo.AttachHosts(topoHosts, rng)
	st := topo.SampleStats(topoPairs, rng)

	fmt.Fprintf(x.out, "transit-stub topology (seed %d)\n", x.seed)
	fmt.Fprintf(x.out, "  routers:          %d\n", st.Routers)
	fmt.Fprintf(x.out, "  transit routers:  %d\n", st.TransitRouters)
	fmt.Fprintf(x.out, "  stub domains:     %d\n", st.Stubs)
	fmt.Fprintf(x.out, "  links:            %d\n", st.Edges)
	fmt.Fprintf(x.out, "  end hosts:        %d\n", st.Hosts)
	fmt.Fprintf(x.out, "  mean host-host latency: %v (over %d sampled pairs)\n", st.MeanHostLatency, st.SampledPairs)
	fmt.Fprintf(x.out, "  max  host-host latency: %v\n", st.MaxHostLatency)
	return nil
}
