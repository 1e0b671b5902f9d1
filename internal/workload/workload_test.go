package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/overlay"
)

var p164 = id.Params{B: 16, D: 4}

// newRunner is a Runner on p164 at the settings of cmd/paper's churn
// script — a failure detector on every node and clock-driven repair —
// with 30 s per crash: a prober here can watch every other member, and
// its 250 ms round-robin takes up to ~20 s to reach the victim.
func newRunner(initial int, seed int64) (*Runner, error) {
	cfg := overlay.Config{
		Params:       p164,
		Liveness:     &liveness.Config{},
		Opts:         core.Options{Timeouts: core.Timeouts{RetryAfter: 500 * time.Millisecond}},
		TickInterval: 100 * time.Millisecond,
	}
	return NewRunner(cfg, 30*time.Second, initial, seed)
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindJoin: "join", KindLeave: "leave", KindCrash: "crash", KindOptimize: "optimize",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("%d.String() = %q", k, got)
		}
	}
	if got := Kind(77).String(); got == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestRandomScriptRespectsMix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := RandomScript(rng, 400, DefaultMix())
	if len(script) != 400 {
		t.Fatalf("script length %d", len(script))
	}
	counts := make(map[Kind]int)
	for _, op := range script {
		counts[op.Kind]++
		if op.Count < 1 {
			t.Fatalf("op with count %d", op.Count)
		}
		if (op.Kind == KindJoin || op.Kind == KindLeave) && op.Count > DefaultMix().MaxBatch {
			t.Fatalf("batch %d exceeds max", op.Count)
		}
	}
	// 4:3:2:1 weights: joins most frequent, optimize least.
	if counts[KindJoin] <= counts[KindLeave] || counts[KindLeave] <= counts[KindCrash] {
		t.Errorf("mix not respected: %v", counts)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty mix did not panic")
			}
		}()
		RandomScript(rng, 1, Mix{})
	}()
}

func TestRunnerValidation(t *testing.T) {
	if _, err := newRunner(0, 1); err == nil {
		t.Error("zero initial size accepted")
	}
	r, err := newRunner(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 20 {
		t.Errorf("Size = %d", r.Size())
	}
	if _, err := r.Apply(Op{Kind: Kind(99)}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestScriptedLifecycle(t *testing.T) {
	r, err := newRunner(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	script := Script{
		{Kind: KindJoin, Count: 20},
		{Kind: KindLeave, Count: 10},
		{Kind: KindCrash, Count: 2},
		{Kind: KindOptimize, Count: 1},
		{Kind: KindJoin, Count: 5},
		{Kind: KindLeave, Count: 8},
	}
	reports, err := r.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(script) {
		t.Fatalf("reports = %d", len(reports))
	}
	wantSize := 50 + 20 - 10 - 2 + 5 - 8
	if got := reports[len(reports)-1].Size; got != wantSize {
		t.Errorf("final size %d, want %d", got, wantSize)
	}
	for i, rep := range reports {
		if rep.Violations != 0 {
			t.Errorf("op %d: %d violations", i, rep.Violations)
		}
		if rep.Op.Kind != KindOptimize && rep.Messages == 0 {
			t.Errorf("op %d (%v): no messages", i, rep.Op.Kind)
		}
	}
	if failed := r.VerifyReachability(300); failed != 0 {
		t.Errorf("%d sampled routes failed", failed)
	}
}

func TestLongRandomChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn")
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r, err := newRunner(60, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 100))
			script := RandomScript(rng, 40, DefaultMix())
			if _, err := r.RunScript(script); err != nil {
				t.Fatal(err)
			}
			if failed := r.VerifyReachability(200); failed != 0 {
				t.Errorf("%d routes failed after churn", failed)
			}
		})
	}
}

func TestMinSizeFloor(t *testing.T) {
	r, err := newRunner(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.MinSize = 9
	rep, err := r.Apply(Op{Kind: KindLeave, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied > 1 {
		t.Errorf("MinSize floor ignored: %d leaves applied", rep.Applied)
	}
	if r.Size() < 9 {
		t.Errorf("network shrank below floor: %d", r.Size())
	}
}
