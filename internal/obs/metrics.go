package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a dependency-free metrics registry: labeled counter
// families and fixed-bucket histograms, exported in the Prometheus text
// exposition format, plus scrape-time renderers (Collect) for series
// derived from state kept elsewhere. All instruments are safe for
// concurrent use (atomics on the update path); registration takes a lock
// and should happen at startup. Registering the same name twice returns
// the existing instrument, but the kinds must match, which panics
// otherwise (a programming error, like a duplicate expvar).
type Registry struct {
	mu    sync.Mutex
	named map[string]any
	order []metricEntry
	// collectors render derived series at scrape time (see Collect).
	collectors []func(io.Writer)
}

type metricEntry struct {
	name, help string
	kind       string // "counter" or "histogram"
	collect    func(w io.Writer, name string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{named: make(map[string]any)}
}

func (r *Registry) register(name, help, kind string, m any, collect func(io.Writer, string)) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.named[name]; ok {
		for _, e := range r.order {
			if e.name == name && e.kind != kind {
				panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, e.kind))
			}
		}
		return existing
	}
	r.named[name] = m
	r.order = append(r.order, metricEntry{name: name, help: help, kind: kind, collect: collect})
	return m
}

// Counter is a monotonically increasing count: one member of a
// CounterVec.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a family of counters split by one label.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	by    map[string]*Counter
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.by[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.by[value]; ok {
		return c
	}
	c = &Counter{}
	v.by[value] = c
	return c
}

// CounterVec registers (or fetches) the named counter family with a
// single label dimension.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, by: make(map[string]*Counter)}
	return r.register(name, help, "counter", v, func(w io.Writer, n string) {
		v.mu.RLock()
		values := make([]string, 0, len(v.by))
		for val := range v.by {
			values = append(values, val)
		}
		sort.Strings(values)
		for _, val := range values {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", n, v.label, val, v.by[val].Value())
		}
		v.mu.RUnlock()
	}).(*CounterVec)
}

// Collect adds a scrape-time renderer: every WritePrometheus calls fn
// after the registered instruments, and fn writes complete exposition
// text, "# TYPE" lines included — the shape for series derived from one
// snapshot of state kept elsewhere (see WriteStruct). fn must be safe to
// call from the scrape goroutine.
func (r *Registry) Collect(fn func(io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// WriteStruct renders every exported numeric field of the struct v (or
// of the struct v points to) as one series named prefix + "_" + the
// snake-cased field path. Integers and floats are counters and gain
// "_total", unless the field is tagged `metric:"gauge"`; bools are 0/1
// gauges. Nested structs extend the path (embedded ones do not), nil
// pointers are left out, and strings, maps, slices and arrays are not
// numbers. So a counter added to a stats struct is exported by adding
// the field.
func WriteStruct(w io.Writer, prefix string, v any) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	eachField(prefix, func(prefix string, f reflect.StructField, fv reflect.Value) {
		kind, val := "counter", 0.0
		switch {
		case fv.CanInt():
			val = float64(fv.Int())
		case fv.CanUint():
			val = float64(fv.Uint())
		case fv.CanFloat():
			val = fv.Float()
		case fv.Kind() == reflect.Bool:
			kind = "gauge"
			if fv.Bool() {
				val = 1
			}
		default:
			return
		}
		if f.Tag.Get("metric") == "gauge" {
			kind = "gauge"
		}
		name := seriesName(prefix, f)
		if kind == "counter" {
			name += "_total"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", name, kind, name, formatFloat(val))
	}, rv)
}

// AddStruct adds every exported numeric field of the struct src (or of
// the struct src points to) into the same field of the struct dst points
// to, walking the fields as WriteStruct does: gauges sum like counters,
// a pointer nil in either is left out, and bools, strings, maps, slices
// and arrays keep dst's value. It panics unless both are the same
// struct type. So a counter added to a stats struct is summed into
// fleet totals by adding the field. It names no field and allocates
// nothing: a status page sums every node's stats on each call.
func AddStruct(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.Indirect(reflect.ValueOf(src))
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("obs: AddStruct of %v into %v", s.Type(), d.Type()))
	}
	addFields(d, s)
}

// addFields adds the leaves of struct s into those of the addressable
// struct d on eachField's walk. It asks the field values, not the
// type, whether a field is exported (settable): reflect.Type.Field
// allocates.
func addFields(d, s reflect.Value) {
	for i := 0; i < d.NumField(); i++ {
		fd, fs := reflect.Indirect(d.Field(i)), reflect.Indirect(s.Field(i))
		if !d.Field(i).CanSet() || !fd.IsValid() || !fs.IsValid() {
			continue
		}
		switch {
		case fd.Kind() == reflect.Struct:
			addFields(fd, fs)
		case fd.CanInt():
			fd.SetInt(fd.Int() + fs.Int())
		case fd.CanUint():
			fd.SetUint(fd.Uint() + fs.Uint())
		case fd.CanFloat():
			fd.SetFloat(fd.Float() + fs.Float())
		}
	}
}

// eachField walks the exported fields of struct v depth first and calls
// fn with each leaf field's prefix (see seriesName), its type field and
// its value. A nil pointer is left out.
func eachField(prefix string, fn func(prefix string, f reflect.StructField, v reflect.Value), v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		fv := reflect.Indirect(v.Field(i))
		if !f.IsExported() || !fv.IsValid() {
			continue
		}
		if fv.Kind() == reflect.Struct {
			eachField(seriesName(prefix, f), fn, fv)
			continue
		}
		fn(prefix, f, fv)
	}
}

// seriesName extends prefix by field f: "_" + its snake-cased name, or
// nothing for an embedded field, so the fields of an embedded struct
// read as the embedder's own.
func seriesName(prefix string, f reflect.StructField) string {
	if f.Anonymous {
		return prefix
	}
	return prefix + "_" + snake(f.Name)
}

// snake turns a Go field name into a metric name component:
// "PushesSent" -> "pushes_sent", "RTT" -> "rtt".
func snake(s string) string {
	lower := func(i int) bool { return i >= 0 && i < len(s) && s[i] >= 'a' && s[i] <= 'z' }
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			if i > 0 && (lower(i-1) || lower(i+1)) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: observation counts per upper bound, plus sum and count.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sumBit atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBit.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBit.Load()) }

// Histogram registers (or fetches) the named histogram with the given
// bucket upper bounds (sorted ascending; +Inf is appended implicitly).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	return r.register(name, help, "histogram", h, func(w io.Writer, n string) {
		cum := uint64(0)
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(ub), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
	}).(*Histogram)
}

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// LatencyBuckets is a general-purpose seconds scale: 1ms to ~65s.
func LatencyBuckets() []float64 { return ExpBuckets(0.001, 2, 17) }

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the text exposition
// format, in registration order, then runs the collectors.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	entries := append([]metricEntry(nil), r.order...)
	collectors := r.collectors // append-only, so the header is a snapshot
	r.mu.Unlock()
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind)
		e.collect(w, e.name)
	}
	for _, fn := range collectors {
		fn(w)
	}
}

// Handler returns the GET /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// FoldPrometheus adds one node's text exposition (what WritePrometheus
// renders) into fleet-wide sums. Labeled series are summed under the bare
// metric name; histogram buckets are skipped, their _sum and _count carry
// the signal that aggregates across nodes.
func FoldPrometheus(r io.Reader, into map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, labeled := strings.Cut(line[:i], "{")
		if labeled && strings.HasSuffix(name, "_bucket") {
			continue
		}
		into[strings.TrimSpace(name)] += v
	}
	return sc.Err()
}
