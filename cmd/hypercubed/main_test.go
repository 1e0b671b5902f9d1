package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/obs"
	"hypercube/internal/persist"
)

// TestDaemonSeedAndJoiner drives the real binary end to end on
// loopback, with no flag beyond deployment ones: a seed and a joiner as
// two processes, the joiner watched through its admin endpoint until it
// is in_system, reports the shipped stack's parts — the RTT estimator
// included — and its failure detector has probed and fed the estimator,
// then SIGINT — which must run the graceful leave, write a loadable
// -dump and exit 0.
func TestDaemonSeedAndJoiner(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "hypercubed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Each daemon logs to a file of its own (handed to the child as is,
	// so nothing in this process writes it), quoted when a step fails.
	start := func(name string, args ...string) (*exec.Cmd, logFile) {
		cmd := exec.Command(bin, args...)
		log, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		return cmd, logFile(log.Name())
	}
	// poll GETs url until ok accepts the body, failing the test with the
	// daemon's log on timeout.
	poll := func(what, url string, log logFile, ok func(*http.Response) bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			resp, err := http.Get(url)
			if err != nil {
				continue
			}
			done := resp.StatusCode == http.StatusOK && ok(resp)
			resp.Body.Close()
			if done {
				return
			}
		}
		t.Fatalf("timed out waiting for %s at %s; daemon log:\n%s", what, url, log)
	}
	var status struct{ Addr, Status string }
	statusIs := func(want string) func(*http.Response) bool {
		return func(resp *http.Response) bool {
			return json.NewDecoder(resp.Body).Decode(&status) == nil && status.Status == want
		}
	}

	seedAdmin, joinerAdmin := freeAddr(t), freeAddr(t)
	seed, seedLog := start("seed", "-listen", "127.0.0.1:0", "-admin", seedAdmin, "-id", "11111111")
	poll("the seed", "http://"+seedAdmin+"/status", seedLog, statusIs("in_system"))

	dump := filepath.Join(dir, "joiner.json")
	joiner, joinerLog := start("joiner", "-listen", "127.0.0.1:0", "-admin", joinerAdmin, "-id", "22222222",
		"-join", "11111111@"+status.Addr, "-dump", dump)
	poll("the join", "http://"+joinerAdmin+"/status", joinerLog, statusIs("in_system"))
	poll("the stack's sections", "http://"+joinerAdmin+"/status", joinerLog, func(resp *http.Response) bool {
		var sections map[string]json.RawMessage
		if json.NewDecoder(resp.Body).Decode(&sections) != nil {
			return false
		}
		for _, part := range []string{"liveness", "rtt", "antiEntropy", "sampling"} {
			if sections[part] == nil {
				t.Fatalf("/status has no %s section", part)
			}
		}
		return true
	})
	poll("a liveness probe and a tracked RTT", "http://"+joinerAdmin+"/metrics", joinerLog, func(resp *http.Response) bool {
		sums := make(map[string]float64)
		return obs.FoldPrometheus(resp.Body, sums) == nil &&
			sums["hypercube_liveness_probes_sent_total"] > 0 && sums["hypercube_rtt_tracked"] > 0
	})

	for _, d := range []struct {
		name string
		cmd  *exec.Cmd
		log  logFile
	}{{"joiner", joiner, joinerLog}, {"seed", seed, seedLog}} {
		if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		if err := d.cmd.Wait(); err != nil {
			t.Errorf("%s after SIGINT: %v; log:\n%s", d.name, err, d.log)
		}
	}
	snap, _, err := persist.LoadFileState(dump, id.Params{B: 16, D: 8})
	if err != nil {
		t.Fatalf("-dump does not load: %v", err)
	}
	if snap.FilledCount() == 0 {
		t.Error("-dump holds an empty table")
	}
}

// TestFlagsGolden pins the daemon's whole command line: a new flag is a
// diff here. Refresh after an intended change with
//
//	go run ./cmd/hypercubed -h 2> cmd/hypercubed/testdata/flags.golden
func TestFlagsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	var errb bytes.Buffer
	if code := run([]string{"-h"}, &errb); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if errb.String() != string(want) {
		t.Errorf("usage differs from testdata/flags.golden; got:\n%s", errb.String())
	}
}

// TestUsageErrors: each tuning flag of earlier releases, and a stray
// argument, is a usage error — exit 2 before anything starts.
func TestUsageErrors(t *testing.T) {
	for _, name := range []string{
		"max-attempts", "backoff", "max-backoff", "queue-limit",
		"flush-delay", "max-frame", "decode-budget", "inbound-rate", "inbound-burst", "read-idle-timeout", "write-timeout",
		"no-guard", "guard-threshold", "guard-decay", "guard-cooldown",
		"no-liveness", "probe-interval", "probe-timeout", "suspect-after", "indirect-probes", "retry-after",
		"adaptive-timeouts", "min-rto", "max-rto",
		"no-sync", "sync-interval",
		"no-sampling", "sample-interval", "view-size", "sample-seed",
	} {
		var errb bytes.Buffer
		if code := run([]string{"-" + name}, &errb); code != 2 || !strings.Contains(errb.String(), "flag provided but not defined: -"+name) {
			t.Errorf("hypercubed -%s: exit %d, stderr %q; want exit 2, flag not defined", name, code, errb.String())
		}
	}
	var errb bytes.Buffer
	if code := run([]string{"seed"}, &errb); code != 2 || !strings.Contains(errb.String(), `unexpected argument "seed"`) {
		t.Errorf("hypercubed seed: exit %d, stderr %q; want exit 2, unexpected argument", code, errb.String())
	}
}

// logFile is the path of a daemon's stderr; it prints as the contents.
type logFile string

func (f logFile) String() string {
	b, _ := os.ReadFile(string(f))
	return string(b)
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
