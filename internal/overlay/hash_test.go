package overlay

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// TestPairHashGolden pins the latency and the lossy direction of fixed
// (seed, from, to) triples to the values the fmt/hash-based
// implementation this one replaced produced: every pair's latency feeds
// a virtual timestamp, so one differing value reorders every seeded run.
func TestPairHashGolden(t *testing.T) {
	golden := []struct {
		b, d     int
		seed     int64
		from, to string
		latency  time.Duration // of HashedUniformLatency(5ms, 120ms, seed)
		lossy    bool          // lossyDirection under Loss.Seed = seed
	}{
		{16, 4, 1, "0a3f", "ffe0", 78416315, false},
		{16, 4, 1, "ffe0", "0a3f", 78416315, true},
		{16, 4, -7, "0a3f", "ffe0", 83105046, true},
		{16, 4, 0, "1234", "1234", 8847007, false},
		{16, 8, 1000, "00c0ffee", "deadbeef", 17430939, false},
		{16, 8, 1000, "deadbeef", "00c0ffee", 17430939, true},
		{16, 8, -9223372036854775808, "00c0ffee", "deadbeef", 21464754, true},
		{4, 8, 42, "21233012", "00000003", 13773430, false},
		{36, 8, 9223372036854775807, "zzzzzzzz", "0az9by8c", 32181765, true},
		{16, 40, 5, "0123456789abcdef0123456789abcdef01234567", "fedcba9876543210fedcba9876543210fedcba98", 27103916, true},
		{16, 40, 5, "fedcba9876543210fedcba9876543210fedcba98", "0123456789abcdef0123456789abcdef01234567", 27103916, false},
		{2, 40, -1, "0101010101010101010101010101010101010101", "1010101010101010101010101010101010101010", 113001643, false},
	}
	for _, g := range golden {
		p := id.Params{B: g.b, D: g.d}
		from, to := id.MustParse(p, g.from), id.MustParse(p, g.to)
		latency := HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, g.seed).Between
		if got := latency(table.Ref{ID: from}, table.Ref{ID: to}); got != g.latency {
			t.Errorf("seed %d %s->%s: latency %d, want %d", g.seed, g.from, g.to, got, g.latency)
		}
		net := New(Config{Params: p, Loss: &Loss{Seed: g.seed, OneWay: true}})
		if got := net.lossyDirection(from, to); got != g.lossy {
			t.Errorf("seed %d %s->%s: lossy direction %v, want %v", g.seed, g.from, g.to, got, g.lossy)
		}
	}
}

// TestPairHashMatchesFormattedFNV checks pairHash against the definition
// it inlines — hash/fnv over the fmt-rendered key — on random pairs,
// including the null ID and IDs too long for the stack buffers.
func TestPairHashMatchesFormattedFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ids := []id.ID{id.Null}
	for _, p := range []id.Params{{B: 2, D: 3}, {B: 16, D: 8}, {B: 36, D: 40}, {B: 7, D: 90}} {
		for i := 0; i < 8; i++ {
			ids = append(ids, id.Random(p, rng))
		}
	}
	for i := 0; i < 2000; i++ {
		from, to := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		seed := rng.Int63() - rng.Int63()
		a, b := from.String(), to.String()
		wantFromLow := true
		if b < a {
			a, b = b, a
			wantFromLow = false
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%s", seed, a, b)
		if sum, fromLow := pairHash(seed, from, to); sum != h.Sum64() || fromLow != wantFromLow {
			t.Fatalf("pairHash(%d, %v, %v) = %#x, %v; want %#x, %v", seed, from, to, sum, fromLow, h.Sum64(), wantFromLow)
		}
	}
}
