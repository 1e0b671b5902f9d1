package nemesis

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/nemesis/oracle"
	"hypercube/internal/node"
	"hypercube/internal/table"
)

var p164 = id.Params{B: 16, D: 4}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, p164, 32, 8)
	b := Generate(42, p164, 32, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	c := Generate(43, p164, 32, 8)
	if reflect.DeepEqual(a.Steps, c.Steps) {
		t.Fatal("different seeds produced identical step lists")
	}
	for seed := uint64(0); seed < 50; seed++ {
		s := Generate(seed, p164, 32, 8)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d generated an invalid schedule: %v", seed, err)
		}
		if len(s.Steps) != 8 {
			t.Fatalf("seed %d: %d steps, want 8", seed, len(s.Steps))
		}
	}
}

// TestGeneratedPartitionsHealLongEnough: no generated schedule chains
// partitions with a heal shorter than two probe timeouts, which the
// detectors would see as one split longer than the envelope allows
// (seed 253 chained three with heals of 0.56–0.99 s).
func TestGeneratedPartitionsHealLongEnough(t *testing.T) {
	for seed := uint64(0); seed < 10000; seed++ {
		for i, a := range Generate(seed, p164, 32, 8).Steps {
			if a.Op == OpPartition && a.Gap < 2*time.Second {
				t.Fatalf("seed %d step %d: partition healed for only %v", seed, i, a.Gap)
			}
		}
	}
}

// TestEnvelopeInsideShippedProfile: the generator's fault bounds stay
// inside what the shipped detector is specified to survive — a pause
// shorter than its declaration window, a heal of at least two probe
// timeouts, a partitioned minority above its partition threshold — so
// a retuned profile that leaves them outside fails here, not as a
// sweep finding.
func TestEnvelopeInsideShippedProfile(t *testing.T) {
	_, parts := node.Shipped()
	lc := parts.Liveness.WithDefaults()
	window := time.Duration(lc.SuspectAfter-1+lc.ConfirmRounds) * lc.ProbeTimeout
	if genMaxPauseDur >= window {
		t.Errorf("pauses up to %v reach the declaration window %v", genMaxPauseDur, window)
	}
	if genMinHeal < 2*lc.ProbeTimeout {
		t.Errorf("heals of %v are shorter than two probe timeouts (%v)", genMinHeal, 2*lc.ProbeTimeout)
	}
	if genPartMinFrac <= lc.PartitionThreshold {
		t.Errorf("a %.2f minority does not exceed the partition threshold %.2f", genPartMinFrac, lc.PartitionThreshold)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Generate(7, p164, 24, 8)
	path := filepath.Join(dir, "repro.json")
	if err := WriteRepro(path, Repro{Schedule: s}); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back.Schedule) {
		t.Fatalf("round trip changed the schedule:\n%v\n%v", s, back.Schedule)
	}
	// A generated schedule leaves the header at its defaults and out of
	// its JSON, so repro files stay byte-identical.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Schedule map[string]json.RawMessage }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	keys := file.Schedule
	for _, k := range []string{"seed", "b", "d", "nodes", "steps"} {
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Fatalf("generated schedule marshals new keys: %s", data)
	}
	for i, bad := range []string{
		`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"warp-core-breach"}]}`,
		`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"crash-stubs","count":1}]}`,
		`{"seed":1,"b":16,"d":4,"nodes":16,"latency":"constant","steps":[]}`,
		`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"slow","count":1,"dur":-1}]}`,
		`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"partition","count":-1,"frac":0.5,"dur":1}]}`,
		`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"loss","count":-2,"rate":0.1,"dur":1}]}`,
		`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"optimize"}]}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("bad%d.json", i))
		if err := os.WriteFile(path, []byte(`{"schedule":`+bad+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRepro(path); err == nil {
			t.Errorf("invalid schedule accepted: %s", bad)
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	for _, s := range []Schedule{
		Generate(11, p164, 16, 5),
		{Seed: 3, B: 16, D: 4, Nodes: 24, Latency: LatencyTransitStub, Steps: []Action{
			{Op: OpJoinWave, Count: 4},
			{Op: OpCrashStubs, Count: 3, Gap: 5 * time.Second},
		}},
	} {
		a, _, err := Execute(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Execute(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same schedule, different results:\nrun1: %+v\nrun2: %+v", a, b)
		}
		if s.Latency == LatencyTransitStub && a.Crashed == 0 {
			t.Errorf("crash-stubs crashed no member: %+v", a)
		}
	}
}

// TestOptimizeStep: an optimize step over transit-stub latencies
// switches entries to nearer members, lowers the route stretch it
// measures around itself, and leaves nothing for the oracle to find.
func TestOptimizeStep(t *testing.T) {
	s := Schedule{Seed: 1, B: 16, D: 4, Nodes: 32, Latency: LatencyTransitStub, Steps: []Action{
		{Op: OpOptimize, Count: 2},
		{Op: OpQuiesce},
	}}
	res, fin, err := Execute(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Errorf("findings: %v", res.Findings)
	}
	if len(fin.Steps) != len(s.Steps) {
		t.Fatalf("%d step records for %d steps", len(fin.Steps), len(s.Steps))
	}
	st := fin.Steps[0]
	if st.Optimize.Rounds != 2 || st.Optimize.Improved == 0 {
		t.Errorf("optimize step: %+v, want 2 rounds and some entry improved", st.Optimize)
	}
	if was, now := st.Stretch[0].Mean, st.Stretch[1].Mean; !(now < was) {
		t.Errorf("stretch %.2f -> %.2f, want it lower", was, now)
	}
}

// TestJoinsHeldOpenByAFault: a partition or loss step with a count
// admits that many fresh joiners while its fault is open, and each must
// be an S-node when the fault closes. The 40 s split outlasts the
// executor's join give-up (six attempts from 500 ms doubling, 31.5 s);
// a 15 s one does not, and at seed 1 one of two joiners is still
// notifying across the cut when it heals, which is a stuck-join finding
// at that step. The joiner completes after the heal, so nothing else is
// found.
func TestJoinsHeldOpenByAFault(t *testing.T) {
	for _, c := range []struct {
		name  string
		s     Schedule
		stuck int // stuck-join findings at step 0
	}{
		{"split outlasts the give-up", Schedule{Seed: 1, B: 16, D: 4, Nodes: 16, Steps: []Action{
			{Op: OpPartition, Frac: 0.5, Dur: 40 * time.Second, Count: 2}}}, 0},
		{"split shorter than the give-up", Schedule{Seed: 1, B: 16, D: 4, Nodes: 16, Steps: []Action{
			{Op: OpPartition, Frac: 0.5, Dur: 15 * time.Second, Count: 2}}}, 1},
		{"base above 16", Schedule{Seed: 1, B: 32, D: 3, Nodes: 16, Steps: []Action{
			{Op: OpPartition, Frac: 0.5, Dur: 40 * time.Second, Count: 2}}}, 0},
		{"loss", Schedule{Seed: 1, B: 16, D: 4, Nodes: 16, Steps: []Action{
			{Op: OpLoss, Rate: 0.1, Dur: 20 * time.Second, Count: 3}}}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, _, err := Execute(c.s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := c.s.Steps[0].Count
			if res.Joined != want {
				t.Errorf("joined %d, want %d", res.Joined, want)
			}
			stuck := 0
			for _, f := range res.Findings {
				if f.Check == oracle.CheckStuckJoin && f.Step == 0 && strings.Contains(f.Detail, "notifying") {
					stuck++
				}
			}
			if stuck != c.stuck || len(res.Findings) != c.stuck {
				t.Errorf("findings %v, want exactly %d stuck-join at step 0", res.Findings, c.stuck)
			}
		})
	}
}

// TestJoinerUnder pins the ID rule of a joiner entering a cut network
// at a base whose digits have no single hexadecimal character: the
// joiner ends in its gateway's digit, shares its two-digit suffix with
// no issued ID, and when no such suffix is left the rule fails instead
// of panicking.
func TestJoinerUnder(t *testing.T) {
	p := id.Params{B: 20, D: 3}
	rng := rand.New(rand.NewSource(1))
	e := &executor{p: p, taken: make(map[id.ID]bool)}
	gw := table.Ref{ID: id.MustParse(p, "a0j")}
	e.taken[gw.ID] = true
	for k := 1; k < p.B; k++ {
		j, ok := e.joinerUnder(gw, rng)
		if !ok {
			t.Fatalf("joiner %d: no ID, with %d two-digit suffixes left", k, p.B-k)
		}
		if j.ID.Digit(0) != gw.ID.Digit(0) {
			t.Fatalf("joiner %v does not end in gateway %v's digit", j.ID, gw.ID)
		}
		for x := range e.taken {
			if x != j.ID && x.CommonSuffixLen(j.ID) >= 2 {
				t.Fatalf("joiner %v shares a two-digit suffix with %v", j.ID, x)
			}
		}
	}
	if j, ok := e.joinerUnder(gw, rng); ok {
		t.Fatalf("joiner %v issued with every two-digit suffix under %v taken", j.ID, gw.ID)
	}
	one := &executor{p: id.Params{B: 20, D: 1}, taken: make(map[id.ID]bool)}
	if _, ok := one.joinerUnder(table.Ref{ID: id.MustParse(one.p, "j")}, rng); ok {
		t.Fatal("single-digit IDs have no two-digit suffix to keep fresh")
	}
}

// injectedViolation is a hand-written schedule that is guaranteed to
// violate an invariant: the 30s clock pause is far beyond the
// declaration window (the generator caps pauses at 2.5s), so the paused
// node — alive the whole time — is declared failed: a false positive.
// The surrounding steps are noise for the shrinker to discard.
func injectedViolation() Schedule {
	return Schedule{
		Seed: 5, B: 16, D: 4, Nodes: 16,
		Steps: []Action{
			{Op: OpJoinWave, Count: 3, Gap: time.Second},
			{Op: OpLoss, Rate: 0.08, Dur: 2 * time.Second, Gap: time.Second},
			{Op: OpPause, Count: 1, Dur: 30 * time.Second, Gap: 2 * time.Second},
			{Op: OpQuiesce, Gap: time.Second},
			{Op: OpRestart, Count: 1, Gap: time.Second},
		},
	}
}

func TestShrinkInjectedViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking runs dozens of simulations")
	}
	s := injectedViolation()
	res, _, err := Execute(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("the injected schedule produced no findings")
	}
	target := res.Findings[0].Check
	if target != oracle.CheckFalseDecl {
		t.Logf("primary finding is %q (findings: %v)", target, res.Findings)
	}

	sh := Shrink(s, target, 150)
	if len(sh.Findings) == 0 {
		t.Fatal("shrink lost the violation")
	}
	if len(sh.Schedule.Steps) >= len(s.Steps) {
		t.Fatalf("shrink did not drop any step: %d -> %d", len(s.Steps), len(sh.Schedule.Steps))
	}
	found := false
	for _, f := range sh.Findings {
		if f.Check == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("shrunk schedule reproduces %v, not the target %q", sh.Findings, target)
	}
	t.Logf("shrunk %d steps -> %d (nodes %d -> %d) in %d executions",
		len(s.Steps), len(sh.Schedule.Steps), s.Nodes, sh.Schedule.Nodes, sh.Executions)

	// The shrinker's output must itself be deterministic.
	sh2 := Shrink(s, target, 150)
	if !reflect.DeepEqual(sh.Schedule, sh2.Schedule) || !reflect.DeepEqual(sh.Findings, sh2.Findings) {
		t.Fatal("two shrinks of the same schedule diverged")
	}
}

func TestReproReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("executes two full simulations")
	}
	s := Schedule{
		Seed: 5, B: 16, D: 4, Nodes: 16,
		Steps: []Action{{Op: OpPause, Count: 1, Dur: 30 * time.Second, Gap: 2 * time.Second}},
	}
	res, _, err := Execute(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("over-window pause produced no findings")
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, Repro{Schedule: s, Findings: res.Findings}); err != nil {
		t.Fatal(err)
	}
	r, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	got, match, err := Replay(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !match {
		t.Fatalf("replay diverged from recording:\nrecorded: %v\nreplayed: %v", r.Findings, got)
	}
}
