package nemesis

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/nemesis/oracle"
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

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Generate(7, p164, 24, 8)
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the schedule:\n%v\n%v", s, back)
	}
	if _, err := ParseSchedule([]byte(`{"seed":1,"b":16,"d":4,"nodes":16,"steps":[{"op":"warp-core-breach"}]}`)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	s := Generate(11, p164, 16, 5)
	a, err := Execute(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same schedule, different results:\nrun1: %+v\nrun2: %+v", a, b)
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
	res, err := Execute(s, Options{})
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
	res, err := Execute(s, Options{})
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
