package oracle

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/obs"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

// buildNet constructs a small converged network whose live tables the
// tests then corrupt through Tables() to seed exact violation kinds.
func buildNet(t *testing.T, n int) (*overlay.Network, []table.Ref) {
	t.Helper()
	cfg := overlay.Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: overlay.ConstantLatency(5 * time.Millisecond),
	}
	rng := rand.New(rand.NewSource(3))
	net := overlay.New(cfg)
	refs := overlay.RandomRefs(cfg.Params, n, rng, nil)
	net.BuildDirect(refs, rng)
	net.RunFor(time.Second)
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("setup: built network inconsistent: %v", v[0])
	}
	return net, refs
}

func TestAuditCleanNetwork(t *testing.T) {
	net, _ := buildNet(t, 8)
	if f := Audit(net, 32, 1, 0); len(f) != 0 {
		t.Fatalf("audit of a consistent network found %v", f)
	}
}

func TestAuditDeterministicSample(t *testing.T) {
	net, _ := buildNet(t, 8)
	a := Audit(net, 16, 9, 3)
	b := Audit(net, 16, 9, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, step) audited differently:\n%v\n%v", a, b)
	}
}

func TestAuditSeededGhost(t *testing.T) {
	net, refs := buildNet(t, 8)
	p := net.Params()
	// A ghost shares every suffix with a real member except the top
	// (most significant, printed-first) digit, so it passes the suffix
	// check at sub-top levels and trips only membership.
	victim := refs[0].ID
	ghost := id.Null
	members := make(map[id.ID]bool, len(refs))
	for _, r := range refs {
		members[r.ID] = true
	}
	printed := []byte(victim.String())
	for c := byte('0'); c <= byte('0'+p.B-1); c++ {
		if c == printed[0] {
			continue
		}
		printed[0] = c
		if cand := id.MustParse(p, string(printed)); !members[cand] {
			ghost = cand
			break
		}
	}
	if ghost.IsNull() {
		t.Fatal("setup: no non-member ghost candidate")
	}
	tbl := net.Tables()[refs[1].ID]
	k := refs[1].ID.CommonSuffixLen(ghost)
	tbl.Set(k, ghost.Digit(k), table.Neighbor{ID: ghost, State: table.StateS})

	f := Audit(net, 0, 1, 4)
	if len(f) == 0 {
		t.Fatal("seeded ghost entry not detected")
	}
	found := false
	for _, x := range f {
		if x.Check != CheckConsistency {
			t.Fatalf("unexpected check %q: %v", x.Check, x)
		}
		if x.Step != 4 {
			t.Fatalf("finding stamped step %d, want 4", x.Step)
		}
		if strings.Contains(x.Detail, "ghost") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ghost-kind violation among %v", f)
	}
}

func TestAuditSeededWrongSuffix(t *testing.T) {
	net, refs := buildNet(t, 8)
	// Overwrite a filled entry of refs[1] with a member that does not
	// carry the entry's desired suffix.
	owner, imposter := refs[1].ID, refs[2].ID
	tbl := net.Tables()[owner]
	k := owner.CommonSuffixLen(imposter)
	seeded := false
	for j := 0; j < net.Params().B && !seeded; j++ {
		if j == imposter.Digit(k) || tbl.Get(k, j).IsZero() {
			continue
		}
		tbl.Set(k, j, table.Neighbor{ID: imposter, State: table.StateS})
		seeded = true
	}
	if !seeded {
		t.Skip("no filled entry to corrupt at the csuf level")
	}
	f := Audit(net, 0, 1, 0)
	found := false
	for _, x := range f {
		if x.Check == CheckConsistency && strings.Contains(x.Detail, "wrong-suffix") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wrong-suffix violation among %v", f)
	}
}

func TestAuditUnreachablePair(t *testing.T) {
	net, refs := buildNet(t, 8)
	// Empty every entry that points at the victim: condition (a) breaks
	// at each erased entry, and the sampled router can no longer take
	// the final hop to it.
	victim := refs[3].ID
	for owner, tbl := range net.Tables() {
		if owner == victim {
			continue
		}
		for i := 0; i < net.Params().D; i++ {
			for j := 0; j < net.Params().B; j++ {
				if tbl.Get(i, j).ID == victim {
					tbl.Set(i, j, table.Neighbor{})
				}
			}
		}
	}
	f := Audit(net, 64, 7, 2)
	var haveConsistency, haveReach bool
	for _, x := range f {
		switch x.Check {
		case CheckConsistency:
			haveConsistency = true
		case CheckReachable:
			haveReach = true
		}
	}
	if !haveConsistency {
		t.Fatalf("erased entries produced no consistency finding: %v", f)
	}
	if !haveReach {
		t.Fatalf("64 sampled pairs over 8 nodes never routed to the cut-off victim: %v", f)
	}
}

func TestAuditCapsPerCheck(t *testing.T) {
	net, _ := buildNet(t, 8)
	// Blanking whole tables floods the checker with false negatives; the
	// audit must cap at maxPerCheck and summarize the rest.
	for _, tbl := range net.Tables() {
		for i := 0; i < net.Params().D; i++ {
			for j := 0; j < net.Params().B; j++ {
				tbl.Set(i, j, table.Neighbor{})
			}
		}
	}
	f := Audit(net, 0, 1, 0)
	if len(f) != maxPerCheck+1 {
		t.Fatalf("%d consistency findings, want %d capped + 1 summary", len(f), maxPerCheck)
	}
	last := f[len(f)-1]
	if !strings.Contains(last.Detail, "more violations") {
		t.Fatalf("final finding is not the overflow summary: %v", last)
	}
}

func TestDeclWatchClassification(t *testing.T) {
	w := NewDeclWatch()
	p := id.Params{B: 4, D: 4}
	dead := id.MustParse(p, "0123")
	live := id.MustParse(p, "3210")
	w.MarkDeadAt(2*time.Second, dead)

	w.Emit(obs.Event{Kind: obs.KindDeclared, Peer: dead, T: 5 * time.Second})
	w.Emit(obs.Event{Kind: obs.KindDeclared, Peer: dead, T: 6 * time.Second})
	w.Emit(obs.Event{Kind: obs.KindDeclared, Peer: live, T: 7 * time.Second})
	w.Emit(obs.Event{Kind: obs.KindSuspect, Peer: live, T: 7 * time.Second}) // ignored

	if w.Genuine() != 2 || w.FalsePositives() != 1 {
		t.Fatalf("genuine=%d false=%d, want 2/1", w.Genuine(), w.FalsePositives())
	}
	if w.Detected() != 1 {
		t.Fatalf("Detected = %d, want 1", w.Detected())
	}
	// First declaration at 5s, crash at 2s.
	if got := w.MeanDetection(); got != 3*time.Second {
		t.Fatalf("MeanDetection = %v, want 3s", got)
	}
	if ex := w.Examples(); len(ex) != 1 || ex[0] != live {
		t.Fatalf("Examples = %v", ex)
	}

	f := AuditDeclarations(w, 6)
	if len(f) != 1 || f[0].Check != CheckFalseDecl || f[0].Step != 6 {
		t.Fatalf("AuditDeclarations = %v", f)
	}
	if !strings.Contains(f[0].Detail, live.String()) {
		t.Fatalf("finding does not name the falsely declared peer: %v", f[0])
	}
}

// TestDetectedCountsCrashesOnly: a declared leaver, marked by MarkDead
// alone, is genuine but no detected crash, so it cannot stand in for a
// crash victim nobody declared.
func TestDetectedCountsCrashesOnly(t *testing.T) {
	w := NewDeclWatch()
	p := id.Params{B: 4, D: 4}
	leaver, victim := id.MustParse(p, "0123"), id.MustParse(p, "3210")
	w.MarkDead(leaver)
	w.MarkDeadAt(time.Second, victim)
	w.Emit(obs.Event{Kind: obs.KindDeclared, Peer: leaver, T: 4 * time.Second})
	if w.Genuine() != 1 || w.FalsePositives() != 0 {
		t.Fatalf("genuine=%d false=%d, want 1/0", w.Genuine(), w.FalsePositives())
	}
	if got := w.Detected(); got != 0 {
		t.Fatalf("Detected = %d with the one crash undeclared, want 0", got)
	}
	if got := w.MeanDetection(); got != 0 {
		t.Fatalf("MeanDetection = %v with no crash declared, want 0", got)
	}
}

func TestAuditDeclarationsQuietWatcher(t *testing.T) {
	w := NewDeclWatch()
	p := id.Params{B: 4, D: 4}
	dead := id.MustParse(p, "2222")
	w.MarkDead(dead)
	w.Emit(obs.Event{Kind: obs.KindDeclared, Peer: dead})
	if f := AuditDeclarations(w, 0); f != nil {
		t.Fatalf("genuine-only watcher produced findings: %v", f)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Check: CheckReachable, Detail: "x cannot reach y", Step: 3}
	if got := f.String(); got != "[step 3] reachability: x cannot reach y" {
		t.Errorf("String() = %q", got)
	}
	f.Step = -1
	if got := f.String(); got != "[final] reachability: x cannot reach y" {
		t.Errorf("final String() = %q", got)
	}
}
