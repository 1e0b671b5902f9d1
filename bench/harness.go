package main

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hypercube/internal/id"
)

// scale selects the paper-scale sizes the driver measures or the toy
// sizes bench_test.go uses to run every code path in seconds.
type scale int

const (
	full scale = iota
	toy
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// round sets up a fresh instance from seed, runs the timed
	// operations and checks their outputs, recording into r.
	round(seed int64, r *recorder)
	// probes times public functions of single layers on artefacts of the
	// last round; it runs once, after the CPU profile has stopped.
	probes(r *recorder)
}

var workloads = map[string]func(scale) workload{
	"sim_join_paper":     newSimJoin,
	"sim_maintain_crash": newSimCrash,
	"sim_lookup":         newSimLookup,
	"tcp_join_fleet":     newTCPFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where trace-<workload>.jsonl goes; "" writes none
	name     string // workload name, for the trace file
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
}

// endToEnd lists the metrics a user of the system would see; every
// workload reports every one of them (--trace 0).
var endToEnd = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_p50_ms":       "ms",
	"op_p90_ms":       "ms",
	"allocs_per_op":   "count",
	"alloc_kb_per_op": "KiB",
	"msgs_per_op":     "count",
	"bytes_per_op":    "B",
	"peak_rss_mb":     "MiB",
}

// sample is one timed region: a wave, one crash repair, a batch of
// lookups, or one fleet round.
type sample struct {
	ops, failed    int
	wall, cpu      time.Duration
	mallocs, bytes uint64
	msgs, wire     int // protocol messages and §5.2 WireSize bytes sent
	round          int
	calibMs        float64 // the noise sentinel around this sample's round
	traced         bool

	latencies int     // ops whose latency was recorded, and their
	p50, p90  float64 // percentiles, ms on the workload's clock
}

type recorder struct {
	cfg      config
	start    time.Time
	deadline time.Time

	setups  []float64 // seconds
	samples []sample
	layers  map[string][]float64
	fails   []string
	err     error // set by abort: the run cannot go on

	cur       sample
	curLat    []float64 // the current sample's latencies; the buffer is reused
	round     int       // the current round, and its span (-1 untraced)
	roundSpan int

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats

	gcCycles   uint32
	gcPauseNs  uint64
	heapPeak   uint64
	goroutines int

	tracing bool
	spanMu  sync.Mutex // the fleet's clients record spans side by side
	spans   []span
	profile bytes.Buffer
}

func newRecorder(cfg config) *recorder {
	now := time.Now()
	return &recorder{
		cfg:      cfg,
		start:    now,
		deadline: now.Add(time.Duration(cfg.seconds * float64(time.Second))),
		layers:   make(map[string][]float64),
	}
}

// expired reports whether the measuring time is used up; long rounds
// poll it between operations.
func (r *recorder) expired() bool { return !time.Now().Before(r.deadline) }

// failf records a failed correctness check; the run goes on so that
// every failure of a seed shows in one output.
func (r *recorder) failf(format string, args ...any) {
	if len(r.fails) < 20 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// abort ends the run: the workload could not be set up at all, so there
// is nothing to measure and no result to print.
func (r *recorder) abort(err error) {
	if r.err == nil {
		r.err = err
	}
}

// setup records one round's set-up time.
func (r *recorder) setup(d time.Duration) { r.setups = append(r.setups, d.Seconds()) }

// reserve makes room for n latencies, so that recording them inside a
// timed region allocates nothing.
func (r *recorder) reserve(n int) {
	if cap(r.curLat) < n {
		r.curLat = make([]float64, 0, n)
	}
}

// latency records one completed operation's latency.
func (r *recorder) latency(d time.Duration) { r.curLat = append(r.curLat, float64(d)/1e6) }

// layer records one value of a per-layer metric; the name decides how
// values combine (see layerMetrics).
func (r *recorder) layer(name string, v float64) {
	if _, ok := layerMetrics[name]; !ok {
		panic("bench: unknown per-layer metric " + name)
	}
	r.layers[name] = append(r.layers[name], v)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resume opens (or reopens) the timed region of the current sample.
func (r *recorder) resume() {
	runtime.ReadMemStats(&r.ms0)
	r.cpu0 = cpuTime()
	r.t0 = time.Now()
}

// pause closes the timed region, adding to the current sample.
func (r *recorder) pause() {
	r.cur.wall += time.Since(r.t0)
	r.cur.cpu += cpuTime() - r.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.cur.mallocs += ms.Mallocs - r.ms0.Mallocs
	r.cur.bytes += ms.TotalAlloc - r.ms0.TotalAlloc
	r.gcCycles += ms.NumGC - r.ms0.NumGC
	r.gcPauseNs += ms.PauseTotalNs - r.ms0.PauseTotalNs
	if ms.HeapInuse > r.heapPeak {
		r.heapPeak = ms.HeapInuse
	}
	if g := runtime.NumGoroutine(); g > r.goroutines {
		r.goroutines = g
	}
}

// commit ends the current sample.
func (r *recorder) commit(ops, failed, msgs, wire int) {
	r.cur.ops, r.cur.failed, r.cur.msgs, r.cur.wire = ops, failed, msgs, wire
	r.cur.round, r.cur.traced = r.round, r.tracing
	r.cur.latencies = len(r.curLat)
	r.cur.p50, r.cur.p90 = percentile(r.curLat, 0.5), percentile(r.curLat, 0.9)
	r.curLat = r.curLat[:0]
	r.samples = append(r.samples, r.cur)
	r.cur = sample{}
}

// latencyPercentile takes each timed region's own percentile and then
// the least disturbed regions' (see fastest). When regions hold one op
// each (a crash repair), it is the percentile over all ops instead.
func latencyPercentile(samples []sample, p float64, of func(sample) float64) float64 {
	var v []float64
	single := true
	for _, s := range samples {
		if s.latencies > 0 {
			v = append(v, of(s))
			single = single && s.latencies == 1
		}
	}
	if single {
		return percentile(v, p)
	}
	return fastest(v)
}

// sentinel times a fixed amount of work that uses no code of this
// repository, so that a slow reading blames the machine.
func sentinel() float64 {
	buf := make([]byte, 64<<10)
	t0 := time.Now()
	var sum [sha1.Size]byte
	for i := 0; i < 400; i++ {
		buf[0] = sum[0]
		sum = sha1.Sum(buf)
	}
	return float64(time.Since(t0)) / 1e6
}

func run(w workload, cfg config) (*result, error) {
	r := newRecorder(cfg)
	before := sentinel()
	const minRounds = 2
	for round := 0; round < minRounds || !r.expired(); round++ {
		// A traced run measures its first quarter untraced, so that the
		// cost of tracing shows as bench.trace_overhead_frac.
		if cfg.trace && !r.tracing && round > 0 && time.Since(r.start).Seconds() >= cfg.seconds/4 {
			if err := pprof.StartCPUProfile(&r.profile); err != nil {
				return nil, fmt.Errorf("start CPU profile: %w", err)
			}
			r.tracing = true
		}
		// Every round starts from a collected heap, so that where the
		// collector's cycles fall within a round depends on the round's own
		// allocations and not on what the round before left behind.
		runtime.GC()
		r.round, r.roundSpan = round, r.begin("round", -1, round)
		w.round(cfg.seed*1000+int64(round), r)
		r.end(r.roundSpan)
		if r.err != nil {
			pprof.StopCPUProfile()
			return nil, r.err
		}
		after := sentinel()
		for i := len(r.samples) - 1; i >= 0 && r.samples[i].round == round; i-- {
			r.samples[i].calibMs = math.Max(before, after)
		}
		before = after
	}
	pprof.StopCPUProfile() // a no-op when none was started
	if cfg.trace {
		r.tracing = false // probes time their own calls; they record no spans
		w.probes(r)
	}
	return r.result()
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the p-quantile of v by linear interpolation, 0 for
// an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// fastest is the mean of the smallest tenth of v, at least two values:
// the run's least disturbed rounds. On the shared machines this runs on,
// a neighbour can slow every round of a minute by a third, and only ever
// slows; sized on such a box, the fastest rounds of a run repeated two
// to four times closer between runs than the median round did.
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[:min(len(s), max(2, len(s)/10))]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// noisy counts the samples of rounds whose sentinel ran more than 15%
// slower than the run's fastest: the machine, not the program, was slow.
func noisy(samples []sample) int {
	best := math.Inf(1)
	for _, s := range samples {
		best = math.Min(best, s.calibMs)
	}
	n := 0
	for _, s := range samples {
		if s.calibMs > 1.15*best {
			n++
		}
	}
	return n
}

// nsPerOp is a time per operation, in nanoseconds, in the run's least
// disturbed samples.
func nsPerOp(samples []sample, f func(sample) time.Duration) float64 {
	var v []float64
	for _, s := range samples {
		if s.ops > 0 {
			v = append(v, float64(f(s))/float64(s.ops))
		}
	}
	return fastest(v)
}

// countPerOp is the mean of a count per operation over all samples:
// counts vary with the seed, not with the machine, so every sample tells.
func countPerOp(samples []sample, f func(sample) float64) float64 {
	var sum float64
	ops := 0
	for _, s := range samples {
		sum += f(s)
		ops += s.ops
	}
	if ops == 0 {
		return 0
	}
	return sum / float64(ops)
}

func opsPerSecond(samples []sample) float64 {
	return 1e9 / nsPerOp(samples, func(s sample) time.Duration { return s.wall })
}

func (r *recorder) result() (*result, error) {
	res := &result{Metrics: make(map[string]metric), failures: r.fails}
	for _, s := range r.samples {
		res.Attempted += s.ops + s.failed
		res.Failed += s.failed
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	res.Correct = len(r.fails) == 0

	// warm is untraced less the first round, which also grows the heap: the
	// base the traced rounds are compared with.
	var untraced, warm, traced []sample
	for _, s := range r.samples {
		switch {
		case s.traced:
			traced = append(traced, s)
		case s.round > 0:
			warm = append(warm, s)
			fallthrough
		default:
			untraced = append(untraced, s)
		}
	}
	if !r.cfg.trace {
		e2e := map[string]float64{
			"setup_s":         fastest(r.setups),
			"ops_per_s":       opsPerSecond(untraced),
			"op_p50_ms":       latencyPercentile(untraced, 0.5, func(s sample) float64 { return s.p50 }),
			"op_p90_ms":       latencyPercentile(untraced, 0.9, func(s sample) float64 { return s.p90 }),
			"allocs_per_op":   countPerOp(untraced, func(s sample) float64 { return float64(s.mallocs) }),
			"alloc_kb_per_op": countPerOp(untraced, func(s sample) float64 { return float64(s.bytes) / 1024 }),
			"msgs_per_op":     countPerOp(untraced, func(s sample) float64 { return float64(s.msgs) }),
			"bytes_per_op":    countPerOp(untraced, func(s sample) float64 { return float64(s.wire) }),
			"peak_rss_mb":     peakRSSMiB(),
		}
		for name, unit := range endToEnd {
			res.Metrics[name] = metric{Value: e2e[name], Unit: unit}
		}
		return res, nil
	}

	r.layer("bench.noisy_rounds", float64(noisy(r.samples)))
	for _, s := range r.samples {
		r.layer("bench.calib_ms", s.calibMs)
	}
	if len(warm) == 0 {
		warm = untraced
	}
	if len(traced) > 0 {
		r.layer("bench.trace_overhead_frac", 1-opsPerSecond(traced)/opsPerSecond(warm))
	}
	r.layer("runtime.cpu_ms_per_op", nsPerOp(r.samples, func(s sample) time.Duration { return s.cpu })/1e6)
	r.layer("runtime.gc_cycles", float64(r.gcCycles))
	r.layer("runtime.gc_pause_ms_total", float64(r.gcPauseNs)/1e6)
	r.layer("runtime.heap_peak_mb", float64(r.heapPeak)/(1<<20))
	r.layer("runtime.goroutines_peak", float64(r.goroutines))
	if r.profile.Len() > 0 {
		shares, err := cpuShares(r.profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("read CPU profile: %w", err)
		}
		for pkg, share := range shares {
			r.layer("cpu_share."+pkg, share)
		}
	}
	for name, def := range layerMetrics {
		v := r.layers[name]
		var value float64
		switch def.agg {
		case aggMedian:
			value = median(v)
		case aggSum:
			for _, x := range v {
				value += x
			}
		case aggMax:
			for _, x := range v {
				value = math.Max(value, x)
			}
		}
		res.Metrics[name] = metric{Value: value, Unit: def.unit}
	}
	if r.cfg.traceDir != "" {
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// memCounters is the part of runtime.MemStats the probes compare.
type memCounters struct{ mallocs, bytes uint64 }

func (m *memCounters) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.bytes = ms.Mallocs, ms.TotalAlloc
}

// timeOp returns the mean nanoseconds, allocations and allocated bytes
// of one call of f, over iters calls.
func timeOp(iters int, f func()) (ns, allocs, bytes float64) {
	var m0, m1 memCounters
	m0.read()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	d := time.Since(t0)
	m1.read()
	n := float64(iters)
	return float64(d) / n, float64(m1.mallocs-m0.mallocs) / n, float64(m1.bytes-m0.bytes) / n
}

func sortIDs(ids []id.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
}
