package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/table"
)

func partitionConfig() Config {
	return Config{
		Params:  id.Params{B: 4, D: 4},
		Latency: ConstantLatency(5 * time.Millisecond),
		Opts: core.Options{Timeouts: core.Timeouts{
			RetryAfter:  300 * time.Millisecond,
			MaxAttempts: 4,
			RepairAfter: 400 * time.Millisecond,
		}},
		Liveness: &liveness.Config{
			ProbeInterval: 100 * time.Millisecond,
			ProbeTimeout:  400 * time.Millisecond,
			SuspectAfter:  3,
			ConfirmRounds: 3,
			// Halving the network makes ~50% of every node's targets
			// unreachable; 0.2 trips well below that while staying above
			// any plausible single-crash fraction in a 16-node table.
			PartitionThreshold: 0.2,
		},
		AntiEntropy:  &antientropy.Config{Interval: time.Second},
		TickInterval: 50 * time.Millisecond,
	}
}

// TestPartitionSoak is the partition-tolerance tentpole scenario: a
// 16-node network is split into two halves long enough for every
// failure-detector timeout to fire many times over, while a new node
// joins on one side. The halves must NOT declare each other dead
// (partition-aware liveness holds the declarations), and after the heal
// the sides — whose tables have genuinely diverged, since one half never
// heard of the joiner — must reconverge to Definition 3.8 consistency
// through anti-entropy rounds alone, with no oracle and no manual
// repair. The whole run must produce zero failure declarations: nothing
// ever crashed.
func TestPartitionSoak(t *testing.T) {
	cfg := partitionConfig()
	rng := rand.New(rand.NewSource(7))
	net := New(cfg)
	taken := make(map[id.ID]bool)
	refs := RandomRefs(cfg.Params, 16, rng, taken)
	net.BuildDirect(refs, rng)

	sideA := make([]id.ID, 0, 8)
	sideB := make([]id.ID, 0, 8)
	for i, r := range refs {
		if i < 8 {
			sideA = append(sideA, r.ID)
		} else {
			sideB = append(sideB, r.ID)
		}
	}

	// Healthy warm-up, then the split.
	net.RunFor(2 * time.Second)
	if st := net.LivenessStats(); st.Declared != 0 {
		t.Fatalf("declarations before the partition: %+v", st)
	}
	// A node joins through side A while the network is split. Its ID is
	// engineered for two properties: (a) it shares its rightmost digit
	// with the gateway, so the copy phase of the join never needs side B,
	// and (b) its two-digit suffix is novel — no member shares it — so
	// every side-B node sharing the rightmost digit has an empty slot
	// only the joiner can fill. Side B is then GUARANTEED to diverge: it
	// misses a live member that only anti-entropy will deliver, because
	// the join protocol never revisits settled tables.
	joiner := divergentJoiner(t, cfg.Params, refs, taken)
	net.Partition(append(sideA, joiner.ID), sideB)
	jm := net.ScheduleJoin(joiner, refs[0], 4*time.Second, refs[1], refs[2])

	net.RunFor(20 * time.Second) // 18s split: dozens of probe timeouts per target

	if st := net.LivenessStats(); st.Declared != 0 {
		t.Fatalf("false-positive declarations during the partition: %+v", st)
	}
	if st := net.LivenessStats(); st.PartitionsEntered < 12 || st.DeclarationsHeld == 0 {
		t.Fatalf("partition mode barely engaged: %+v", st)
	}
	if got := net.PartitionedCount(); got < 12 {
		t.Fatalf("only %d probers in partition mode at peak, want >= 12", got)
	}
	if net.PartitionDropped() == 0 {
		t.Fatal("no messages were cut by the partition")
	}
	if !jm.IsSNode() {
		t.Fatalf("joiner stuck in %v: a partitioned side must still admit nodes", jm.Status())
	}

	// Heal. The sides must actually have diverged (that is the point of
	// the engineered joiner), then reconverge within a bounded number of
	// anti-entropy rounds.
	net.Heal()
	if len(net.CheckConsistency()) == 0 {
		t.Fatal("no divergence at heal time — the scenario lost its teeth")
	}
	const maxRounds = 25
	rounds := 0
	for ; rounds < maxRounds && len(net.CheckConsistency()) != 0; rounds++ {
		net.RunFor(cfg.AntiEntropy.Interval)
	}
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("still %d violations %d rounds after heal, first: %v", len(v), rounds, v[0])
	}
	t.Logf("reconverged %d anti-entropy rounds after heal (pulled %d, purged %d)",
		rounds, net.AntiEntropyStats().Pulled, net.AntiEntropyStats().Purged)

	st := net.LivenessStats()
	if st.Declared != 0 {
		t.Fatalf("declarations after heal: %+v — nothing ever crashed", st)
	}
	if st.PartitionsExited < 12 {
		t.Fatalf("probers stuck in partition mode after heal: %+v", st)
	}
	if net.PartitionedCount() != 0 {
		t.Fatalf("%d probers still partitioned after heal", net.PartitionedCount())
	}
	if net.AntiEntropyStats().Pulled == 0 {
		t.Fatal("anti-entropy pulled nothing, yet the sides had diverged")
	}
	if net.Size() != 17 {
		t.Fatalf("Size = %d, want 17 — no node may be lost to a partition", net.Size())
	}
}

// divergentJoiner constructs a fresh node ID whose rightmost digit
// matches the gateway refs[0] (so the join's copy phase resolves inside
// the gateway's side) and whose two-digit suffix no existing member has
// (so every node sharing the rightmost digit — in particular at least
// one node of side B, refs[8:] — has an empty level-1 slot only this
// node can fill). With the chosen seed both conditions are satisfiable;
// the test fails loudly if a seed change breaks that.
func divergentJoiner(t *testing.T, p id.Params, refs []table.Ref, taken map[id.ID]bool) table.Ref {
	t.Helper()
	y0 := refs[0].ID.Digit(0)
	sideBShares := false
	for _, r := range refs[8:] {
		if r.ID.Digit(0) == y0 {
			sideBShares = true
			break
		}
	}
	if !sideBShares {
		t.Fatalf("no side-B node shares the gateway's rightmost digit %d; pick another seed", y0)
	}
	for y1 := 0; y1 < p.B; y1++ {
		patternUsed := false
		for _, r := range refs {
			if r.ID.Digit(0) == y0 && r.ID.Digit(1) == y1 {
				patternUsed = true
				break
			}
		}
		if patternUsed {
			continue
		}
		// Enumerate the free high digits until an unused ID appears.
		for c := 0; c < 1<<(2*(p.D-2)); c++ {
			digits := make([]int, p.D) // digits[i] = i-th digit from the right
			digits[0], digits[1] = y0, y1
			rest := c
			for i := 2; i < p.D; i++ {
				digits[i] = rest % p.B
				rest /= p.B
			}
			s := make([]byte, p.D)
			for i := 0; i < p.D; i++ {
				s[p.D-1-i] = "0123456789abcdef"[digits[i]]
			}
			x := id.MustParse(p, string(s))
			if !taken[x] {
				taken[x] = true
				return table.Ref{ID: x, Addr: "sim://" + string(s)}
			}
		}
	}
	t.Fatal("every two-digit suffix over the gateway's rightmost digit is taken; pick another seed")
	return table.Ref{}
}

// TestAntiEntropyRepairsInjectedDivergence isolates the repair half:
// with no liveness involved, entries blanked behind the protocol's back
// (as lost notifications or botched repairs would) are refilled by
// anti-entropy rounds alone.
func TestAntiEntropyRepairsInjectedDivergence(t *testing.T) {
	cfg := Config{
		Params:       id.Params{B: 4, D: 4},
		Latency:      ConstantLatency(5 * time.Millisecond),
		AntiEntropy:  &antientropy.Config{Interval: time.Second},
		TickInterval: 100 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(11))
	net := New(cfg)
	refs := RandomRefs(cfg.Params, 16, rng, nil)
	net.BuildDirect(refs, rng)

	blanked := 0
	for _, r := range refs[:8] {
		tbl, _ := net.TableOf(r.ID)
		var coords [][2]int
		tbl.ForEach(func(level, digit int, nb table.Neighbor) {
			if nb.ID != r.ID {
				coords = append(coords, [2]int{level, digit})
			}
		})
		if len(coords) == 0 {
			continue
		}
		c := coords[rng.Intn(len(coords))]
		tbl.Set(c[0], c[1], table.Neighbor{})
		blanked++
	}
	if blanked == 0 || len(net.CheckConsistency()) == 0 {
		t.Fatalf("divergence injection failed (%d blanked)", blanked)
	}

	const maxRounds = 15
	rounds := 0
	for ; rounds < maxRounds && len(net.CheckConsistency()) != 0; rounds++ {
		net.RunFor(cfg.AntiEntropy.Interval)
	}
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("%d violations after %d rounds, first: %v", len(v), rounds, v[0])
	}
	if net.AntiEntropyStats().Pulled < blanked {
		t.Fatalf("pulled %d < %d blanked entries", net.AntiEntropyStats().Pulled, blanked)
	}
	t.Logf("repaired %d blanked entries in %d rounds", blanked, rounds)
}
