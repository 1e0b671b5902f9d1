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
	dir, start := daemons(t)
	var status struct{ Addr, Status string }
	statusIs := func(want string) func(*http.Response) bool {
		return func(resp *http.Response) bool {
			return json.NewDecoder(resp.Body).Decode(&status) == nil && status.Status == want
		}
	}

	seedAdmin, joinerAdmin := freeAddr(t), freeAddr(t)
	seed, seedLog := start("seed", "-listen", "127.0.0.1:0", "-admin", seedAdmin, "-id", "11111111")
	poll(t, "the seed", "http://"+seedAdmin+"/status", seedLog, statusIs("in_system"))

	dump := filepath.Join(dir, "joiner.json")
	joiner, joinerLog := start("joiner", "-listen", "127.0.0.1:0", "-admin", joinerAdmin, "-id", "22222222",
		"-join", "11111111@"+status.Addr, "-dump", dump)
	poll(t, "the join", "http://"+joinerAdmin+"/status", joinerLog, statusIs("in_system"))
	poll(t, "the stack's sections", "http://"+joinerAdmin+"/status", joinerLog, func(resp *http.Response) bool {
		var sections map[string]json.RawMessage
		if json.NewDecoder(resp.Body).Decode(&sections) != nil {
			return false
		}
		for _, part := range []string{"liveness", "rtt", "antiEntropy"} {
			if sections[part] == nil {
				t.Fatalf("/status has no %s section", part)
			}
		}
		if sections["sampling"] != nil {
			t.Fatal("/status has a sampling section, but the shipped stack runs no sampler")
		}
		return true
	})
	poll(t, "a liveness probe and a tracked RTT", "http://"+joinerAdmin+"/metrics", joinerLog, func(resp *http.Response) bool {
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
	snap, err := persist.LoadFileState(dump, id.Params{B: 16, D: 8})
	if err != nil {
		t.Fatalf("-dump does not load: %v", err)
	}
	if snap.FilledCount() == 0 {
		t.Error("-dump holds an empty table")
	}
}

// TestDaemonTracedJoin runs seed and joiner with causal tracing on and
// drains both /trace rings into one analyzer until the join's span tree
// reconstructs with a hop from one process to the other: the
// -trace-sample flag reaches the node's tracer, and traced records cross
// real sockets.
func TestDaemonTracedJoin(t *testing.T) {
	_, start := daemons(t)
	traced := []string{"-listen", "127.0.0.1:0", "-trace-sample", "1", "-trace-ring", "4096"}
	var status struct{ Addr string }
	seedAdmin, joinerAdmin := freeAddr(t), freeAddr(t)
	_, seedLog := start("seed", append(traced, "-admin", seedAdmin, "-id", "11111111")...)
	poll(t, "the seed", "http://"+seedAdmin+"/status", seedLog, func(resp *http.Response) bool {
		return json.NewDecoder(resp.Body).Decode(&status) == nil && status.Addr != ""
	})
	_, joinerLog := start("joiner", append(traced, "-admin", joinerAdmin, "-id", "22222222",
		"-join", "11111111@"+status.Addr)...)

	a := obs.NewAnalyzer("")
	drain := func(resp *http.Response) bool {
		var body struct{ Events []obs.Event }
		if json.NewDecoder(resp.Body).Decode(&body) != nil {
			return false
		}
		for _, e := range body.Events {
			a.Feed(e)
		}
		return true
	}
	poll(t, "a reconstructed join", "http://"+joinerAdmin+"/trace", joinerLog, func(resp *http.Response) bool {
		if !drain(resp) {
			return false
		}
		resp, err := http.Get("http://" + seedAdmin + "/trace")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		drain(resp)
		// A hop is a send on one daemon and its recv on the other in one
		// span: the context crossed the socket.
		rep := a.Report()
		return rep.RequireJoins(1) == nil && len(rep.JoinTrees.HopsByMsg)+rep.JoinTrees.HopsExcluded > 0
	})
}

// daemons builds the binary into a fresh directory and returns that
// directory and a starter for the binary's processes, each killed when
// the test ends. Each daemon logs to a file of its own (handed to the
// child as is, so nothing in this process writes it), quoted when a
// step fails.
func daemons(t *testing.T) (dir string, start func(name string, args ...string) (*exec.Cmd, logFile)) {
	dir = t.TempDir()
	bin := filepath.Join(dir, "hypercubed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, func(name string, args ...string) (*exec.Cmd, logFile) {
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
}

// poll GETs url until ok accepts the body, failing the test with the
// daemon's log on timeout.
func poll(t *testing.T, what, url string, log logFile, ok func(*http.Response) bool) {
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

// TestUsageErrors: each tuning flag of earlier releases, a tracing
// flag out of its range, and a stray argument, is a usage error — exit
// 2 before anything starts.
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
	// Values a flag cannot honour. -b 1 is no valid base, so a binary
	// that let one through would exit 1 instead of serving.
	for _, args := range [][]string{
		{"-trace-sample", "NaN"}, {"-trace-sample", "5"}, {"-trace-sample", "-0.5"},
		{"-trace-ring", "-1"},
	} {
		var errb bytes.Buffer
		if code := run(append(args, "-b", "1"), &errb); code != 2 || !strings.Contains(errb.String(), args[0]) {
			t.Errorf("hypercubed %s: exit %d, stderr %q; want exit 2 naming the flag", strings.Join(args, " "), code, errb.String())
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
