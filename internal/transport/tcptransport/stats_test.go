package tcptransport

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/node"
	"hypercube/internal/rtt"
	"hypercube/internal/sampling"
)

var update = flag.Bool("update", false, "rewrite testdata/admin_surface.golden from the current /status and /metrics")

// fullNodeSurfaces joins a node with every part attached (scorer,
// failure detector, RTT estimator, anti-entropy, sampler) to a seed and
// returns it with its decoded GET /status and raw GET /metrics.
func fullNodeSurfaces(t *testing.T) (n *Node, status map[string]any, scrape string) {
	t.Helper()
	opts := core.Options{Guard: &guard.Policy{}}
	parts := WithConfig(Config{Config: node.Config{
		Liveness:    &liveness.Config{ProbeInterval: 20 * time.Millisecond},
		RTT:         &rtt.Config{},
		AntiEntropy: &antientropy.Config{},
		Sampling:    &sampling.Config{},
	}})
	seed, err := StartSeed(p163, opts, id.MustParse(p163, "abc"), "127.0.0.1:0", parts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seed.Close() })
	n, err = StartJoiner(p163, opts, id.MustParse(p163, "132"), "127.0.0.1:0", parts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(n.AdminHandler())
	defer srv.Close()
	getJSON(t, srv, "/status", &status)
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return n, status, string(body)
}

// metricTypes maps every series family in a scrape to its "# TYPE".
func metricTypes(scrape string) map[string]string {
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(scrape))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	return types
}

// TestAdminSurfaceGolden pins what an operator can read: every key path
// of GET /status and every "# TYPE" line of GET /metrics, values
// stripped, for a node with every part attached. The by-name tallies
// and the per-peer queue map have traffic-dependent keys and are listed
// as "key.*". A path or series that disappears or is renamed fails
// here; refresh with -update and list the change in CHANGES.md.
func TestAdminSurfaceGolden(t *testing.T) {
	_, status, scrape := fullNodeSurfaces(t)
	dynamic := map[string]bool{"sent": true, "received": true, "retried": true, "dropped": true, "rejected": true, "queues": true}
	var paths []string
	var walk func(prefix string, v map[string]any)
	walk = func(prefix string, v map[string]any) {
		for k, child := range v {
			obj, isObj := child.(map[string]any)
			switch {
			case isObj && dynamic[k]:
				paths = append(paths, prefix+k+".*")
			case isObj:
				walk(prefix+k+".", obj)
			default:
				paths = append(paths, prefix+k)
			}
		}
	}
	walk("", status)
	sort.Strings(paths)
	var types []string
	for name, kind := range metricTypes(scrape) {
		types = append(types, fmt.Sprintf("# TYPE %s %s", name, kind))
	}
	sort.Strings(types)
	got := "GET /status\n" + strings.Join(paths, "\n") + "\nGET /metrics\n" + strings.Join(types, "\n") + "\n"

	golden := filepath.Join("testdata", "admin_surface.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("admin surface changed (refresh with -update, list the change in CHANGES.md)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricTypes: a series named *_total is a counter and nothing else
// is, and the occupancy values are gauges. (Seven monotonic series used
// to be typed gauge because a callback gauge was the only derived
// instrument.)
func TestMetricTypes(t *testing.T) {
	_, _, scrape := fullNodeSurfaces(t)
	types := metricTypes(scrape)
	for name, kind := range types {
		if isTotal := strings.HasSuffix(name, "_total"); isTotal != (kind == "counter") {
			t.Errorf("%s is typed %s", name, kind)
		}
	}
	for _, name := range []string{
		"hypercube_sampling_view_size", "hypercube_sampling_sampler_fill",
		"hypercube_rtt_tracked", "hypercube_rtt_degraded",
		"hypercube_guard_scorer_quarantined",
		"hypercube_liveness_targets", "hypercube_liveness_suspects_now", "hypercube_liveness_partitioned",
		"hypercube_outbound_queue_depth", "hypercube_writers", "hypercube_filled_entries", "hypercube_uptime_seconds",
	} {
		if types[name] != "gauge" {
			t.Errorf("%s is typed %q, want gauge", name, types[name])
		}
	}
	// Everything but the event-fed instruments and the labelled message
	// view is derived from a Stats field.
	eventFed := map[string]bool{"hypercube_events_total": true, "hypercube_join_duration_seconds": true,
		"hypercube_probe_rtt_seconds": true, "hypercube_antientropy_round_seconds": true}
	derived := 0
	for name := range types {
		if !eventFed[name] && !strings.HasPrefix(name, "hypercube_messages_") {
			derived++
		}
	}
	if derived < 50 {
		t.Errorf("%d derived series with every part attached, want >= 50", derived)
	}
}

// TestStatsFieldsReachBothSurfaces is the drift guard: every exported
// numeric or bool leaf of Stats — whichever part's struct declares it —
// must be served by GET /status under its JSON path and by GET /metrics
// under its field path. Adding a field is all it takes to export it,
// and nothing a part counts can be left out by hand again.
func TestStatsFieldsReachBothSurfaces(t *testing.T) {
	n, status, scrape := fullNodeSurfaces(t)
	// Series names compared with the underscores taken out, so the test
	// does not carry a second copy of the exporter's snake-casing.
	series := make(map[string]bool)
	for name := range metricTypes(scrape) {
		series[strings.ReplaceAll(name, "_", "")] = true
	}
	leaves := 0
	var walk func(v reflect.Value, goPath string, at map[string]any, jsonPath string)
	walk = func(v reflect.Value, goPath string, at map[string]any, jsonPath string) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			if !f.IsExported() {
				continue
			}
			if fv.Kind() == reflect.Pointer {
				if fv.IsNil() {
					t.Errorf("Stats.%s%s is nil: the test node must attach every part", goPath, f.Name)
					continue
				}
				fv = fv.Elem()
			}
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch fv.Kind() {
			case reflect.Struct:
				if f.Anonymous {
					walk(fv, goPath, at, jsonPath)
					continue
				}
				child, ok := at[key].(map[string]any)
				if !ok {
					t.Errorf("/status has no object %s%s for Stats.%s%s", jsonPath, key, goPath, f.Name)
					continue
				}
				walk(fv, goPath+f.Name, child, jsonPath+key+".")
			case reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
				leaves++
				if _, ok := at[key]; !ok || key == "" {
					t.Errorf("/status does not serve Stats.%s%s (expected key %s%q)", goPath, f.Name, jsonPath, key)
				}
				name := strings.ToLower("hypercube" + goPath + f.Name)
				if !series[name] && !series[name+"total"] {
					t.Errorf("/metrics does not serve Stats.%s%s", goPath, f.Name)
				}
			}
		}
	}
	walk(reflect.ValueOf(n.Stats()), "", status, "")
	if leaves < 50 {
		t.Errorf("walked %d numeric leaves, want >= 50: the walk lost a section", leaves)
	}
}
