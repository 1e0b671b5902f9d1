package tcptransport

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/node"
	"hypercube/internal/obs"
)

// TestMetricsEndpointAfterJoin scrapes GET /metrics on a live node after
// one real TCP join and asserts the join-latency histogram is populated
// and the exposition parses as Prometheus text format.
func TestMetricsEndpointAfterJoin(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "123"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	if err := joiner.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(joiner.AdminHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}

	// Parse the exposition: every non-comment line must be "name value"
	// or "name{label} value" with a numeric value.
	samples := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("non-numeric value in line %q: %v", line, err)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if got := samples["hypercube_join_duration_seconds_count"]; got != 1 {
		t.Errorf("join-latency histogram count = %v, want 1", got)
	}
	if got := samples["hypercube_join_duration_seconds_sum"]; got <= 0 {
		t.Errorf("join-latency histogram sum = %v, want > 0", got)
	}
	if got := samples[`hypercube_messages_sent_total{type="CpRstMsg"}`]; got < 1 {
		t.Errorf("sent CpRstMsg = %v, want >= 1", got)
	}
	if got := samples[`hypercube_events_total{kind="status"}`]; got < 3 {
		t.Errorf("status events = %v, want >= 3 (copying machine passes waiting+notifying+in_system)", got)
	}
	if samples["hypercube_uptime_seconds"] <= 0 {
		t.Error("uptime gauge not positive")
	}
}

// TestStatusObservabilityFields checks the /status additions: uptime,
// last status transition, per-peer queue depths.
func TestStatusObservabilityFields(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "321"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(joiner.AdminHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		UptimeSeconds  float64        `json:"uptimeSeconds"`
		LastTransition string         `json:"lastTransition"`
		Queues         map[string]int `json:"queues"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v", st.UptimeSeconds)
	}
	if !strings.Contains(st.LastTransition, "in_system") {
		t.Errorf("lastTransition = %q, want the in_system transition", st.LastTransition)
	}
	if _, ok := st.Queues[seed.Ref().Addr]; !ok {
		t.Errorf("queues = %v, want an entry for the seed %s", st.Queues, seed.Ref().Addr)
	}
}

// TestTraceRingAndSink joins over TCP with both a user sink and the
// admin trace ring installed, then drains the ring via GET /trace.
func TestTraceRingAndSink(t *testing.T) {
	user := obs.NewRing(4096)
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "231"), "127.0.0.1:0",
		WithConfig(Config{Config: node.Config{Sink: user}, TraceRing: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.Join(seed.Ref()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(joiner.AdminHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[obs.Kind]int)
	for _, e := range body.Events {
		kinds[e.Kind]++
		if e.Node != joiner.Ref().ID.String() {
			t.Fatalf("event from wrong node: %+v", e)
		}
	}
	if kinds[obs.KindJoinStart] != 1 {
		t.Errorf("join_start events = %d, want 1", kinds[obs.KindJoinStart])
	}
	if kinds[obs.KindStatus] < 3 {
		t.Errorf("status events = %d, want >= 3", kinds[obs.KindStatus])
	}
	if kinds[obs.KindSend] == 0 || kinds[obs.KindRecv] == 0 {
		t.Errorf("missing send/recv events: %v", kinds)
	}
	// The user sink saw the same stream.
	if got := len(user.Drain()); got == 0 {
		t.Error("user sink received no events")
	}
	// The ring was drained by the first GET; a second drain is empty.
	resp2, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body2 struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body2); err != nil {
		t.Fatal(err)
	}
	if len(body2.Events) != 0 {
		t.Errorf("second drain returned %d events", len(body2.Events))
	}
}

// TestTraceWithoutRing404s confirms GET /trace without Config.TraceRing is
// a 404, not a panic or an empty 200.
func TestTraceWithoutRing404s(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "cba"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	srv := httptest.NewServer(seed.AdminHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("GET /trace without ring = %d, want 404", resp.StatusCode)
	}
}
