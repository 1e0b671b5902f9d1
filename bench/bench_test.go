package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit string
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesHarness pins BENCHMARK.json to the tables the
// harness emits from: same workloads, same metrics, same units.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, the harness has %d", len(m.EndToEnd), len(endToEnd))
	}
	for _, mm := range m.EndToEnd {
		if unit, ok := endToEnd[mm.Name]; !ok || unit != mm.Unit {
			t.Errorf("end-to-end metric %q: BENCHMARK.json says unit %q, the harness %q (known: %v)", mm.Name, mm.Unit, unit, ok)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the harness has %d", len(m.PerLayer), len(layerMetrics))
	}
	for _, mm := range m.PerLayer {
		if def, ok := layerMetrics[mm.Name]; !ok || def.unit != mm.Unit {
			t.Errorf("per-layer metric %q: BENCHMARK.json says unit %q, the harness %q (known: %v)", mm.Name, mm.Unit, def.unit, ok)
		}
	}
}

func runToy(t *testing.T, name string, trace bool, dir string) *result {
	t.Helper()
	res, err := run(workloads[name](toy), config{seed: 7, trace: trace, traceDir: dir, name: name})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d: %v", name, res.Correct, res.Failed, res.failures)
	}
	return res
}

// exactE2E and exactLayers are what a simulated workload counts and the
// virtual time it takes: they depend on the seed alone, so two runs of
// one seed must agree on them to the last digit.
var (
	exactE2E = map[string][]string{
		"sim_join_paper":     {"msgs_per_op", "bytes_per_op", "op_p50_ms", "op_p90_ms"},
		"sim_maintain_crash": {"msgs_per_op", "bytes_per_op", "op_p50_ms", "op_p90_ms"},
		"sim_lookup":         {"msgs_per_op", "bytes_per_op"},
	}
	exactLayers = []string{
		"msg.big_per_op", "msg.small_per_op", "msg.joinnoti_per_join", "core.deliver_per_join",
		"core.max_cprst_joinwait", "sim.events_per_op", "overlay.dropped_msgs", "dht.hops_mean",
		"dht.hops_model_err", "liveness.detect_virtual_ms_p50", "liveness.suspects",
		"liveness.false_declarations", "liveness.probes_per_node_s", "antientropy.pulled",
		"antientropy.rounds_per_node_s", "sampling.rounds_per_node_s", "guard.rejected_per_op",
		"table.fill_ratio",
	}
)

// TestWorkloads runs every workload at toy scale, untraced and traced,
// twice each. Every name in BENCHMARK.json must come out with a finite
// value and its unit, the end-to-end ones positive; and the two runs of
// a simulated workload must agree exactly on counts and virtual time.
func TestWorkloads(t *testing.T) {
	m := readManifest(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			check := func(trace bool, want []manifestMetric, exact []string) {
				t.Helper()
				res, again := runToy(t, name, trace, dir), runToy(t, name, trace, "")
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, mm := range want {
					got, ok := res.Metrics[mm.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", mm.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", mm.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("%s = %v, want a positive value", mm.Name, got.Value)
					case got.Unit != mm.Unit:
						t.Errorf("%s has unit %q, want %q", mm.Name, got.Unit, mm.Unit)
					}
				}
				for _, k := range exact {
					if a, b := res.Metrics[k].Value, again.Metrics[k].Value; a != b {
						t.Errorf("%s differs between two runs of one seed: %v, %v", k, a, b)
					}
				}
			}
			check(false, m.EndToEnd, exactE2E[name])
			if _, simulated := exactE2E[name]; simulated {
				check(true, m.PerLayer, exactLayers)
			} else {
				check(true, m.PerLayer, nil)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
}

// TestExpectedHops checks the hop-count chain on a member set where it
// can be worked out by hand: n members that differ in their last digit.
// A lookup takes one hop, to the root, unless it starts at the root or
// at the holder: ((n-1)/n)^2 hops on average.
func TestExpectedHops(t *testing.T) {
	const n, d = 10, 4
	c := make([]float64, d+2)
	e := make([]float64, d+1)
	c[0] = n
	for l := 1; l <= d; l++ {
		c[l] = 1
	}
	for l := 0; l <= d; l++ {
		e[l] = c[l] - c[l+1]
	}
	want := math.Pow(float64(n-1)/n, 2)
	if got := expectedHops(e, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("expectedHops = %v, want %v", got, want)
	}
}

// Protobuf writers for the synthetic profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data))), data...)
}

// TestCPUShares feeds cpuShares a hand-built profile: four functions,
// samples weighted 5/3/1/1, one sample with unpacked location IDs and one
// location whose first line is an inlined callee.
func TestCPUShares(t *testing.T) {
	names := []string{"",
		"hypercube/internal/table.(*Table).Get",
		"hypercube/internal/transport/tcptransport.(*Node).handleEnvelope.func1",
		"runtime.mallocgc",
		"slices.SortFunc[go.shape.struct { hypercube/internal/id.ID }]",
		"hypercube/internal/core.(*Machine).Deliver",
	}
	var prof []byte
	sample := func(count uint64, packed bool, locs ...uint64) {
		var s []byte
		if packed {
			var ids []byte
			for _, l := range locs {
				ids = pbVarint(ids, l)
			}
			s = pbBytes(s, 1, ids)
		} else {
			for _, l := range locs {
				s = pbUint(s, 1, l)
			}
		}
		s = pbBytes(s, 2, pbVarint(pbVarint(nil, count), count*10_000_000))
		prof = pbBytes(prof, 2, s)
	}
	sample(5, true, 1, 5) // leaf table.Get, called from core
	sample(3, false, 2, 5)
	sample(1, true, 3)
	sample(1, true, 4)
	for loc := uint64(1); loc <= 5; loc++ {
		l := pbUint(nil, 1, loc)
		l = pbUint(l, 3, 0x1000*loc)
		l = pbBytes(l, 4, pbUint(pbUint(nil, 1, loc), 2, 42)) // line: function_id = loc
		if loc == 1 {
			l = pbBytes(l, 4, pbUint(nil, 1, 5)) // table.Get inlined into core's Deliver
		}
		prof = pbBytes(prof, 4, l)
	}
	for fn := uint64(1); fn <= 5; fn++ {
		prof = pbBytes(prof, 5, pbUint(pbUint(nil, 1, fn), 2, fn))
	}
	for _, s := range names {
		prof = pbBytes(prof, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"table": 0.5, "tcptransport": 0.3, "runtime": 0.1, "other": 0.1}
	if len(got) != len(want) {
		t.Errorf("shares = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile was read without an error")
	}
}
