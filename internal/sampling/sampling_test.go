package sampling

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

var sp = id.Params{B: 16, D: 4}

func sref(i int) table.Ref {
	s := fmt.Sprintf("%04x", i&0xffff)
	return table.Ref{ID: id.MustParse(sp, s), Addr: "sim://" + s}
}

// TestSamplerDeterminism drives two engines with identical (seed, self)
// through an identical scripted exchange and requires bit-identical
// behavior: same outgoing envelopes every round, same final view, same
// sampler contents. The whole layer must replay deterministically under
// a fixed seed — simulation results are meaningless otherwise.
func TestSamplerDeterminism(t *testing.T) {
	mk := func() *Engine {
		e := New(Config{ViewSize: 8, Interval: time.Second, Seed: 42}, sref(1))
		e.SeedPeers(sref(2), sref(3), sref(4), sref(5), sref(6), sref(7), sref(8), sref(9))
		return e
	}
	a, b := mk(), mk()

	now := time.Duration(0)
	for round := 0; round < 12; round++ {
		now += time.Second
		outA, outB := a.Tick(now), b.Tick(now)
		if !reflect.DeepEqual(outA, outB) {
			t.Fatalf("round %d: engines diverged:\n a=%v\n b=%v", round, outA, outB)
		}
		// Identical inbound traffic: a couple of pushes, plus a reply to
		// the first pull either engine opened this round.
		for _, e := range []*Engine{a, b} {
			e.Deliver(msg.Envelope{From: sref(10 + round), To: sref(1), Msg: msg.SamplePush{}})
			e.Deliver(msg.Envelope{From: sref(20 + round), To: sref(1), Msg: msg.SamplePush{}})
			for _, env := range outA {
				if _, ok := env.Msg.(msg.SamplePullReq); ok {
					e.Deliver(msg.Envelope{From: env.To, To: sref(1), Msg: msg.SamplePullRly{
						Refs: []table.Ref{sref(30 + round), sref(31 + round)},
					}})
					break
				}
			}
		}
	}
	if !reflect.DeepEqual(a.View(), b.View()) {
		t.Errorf("final views diverged:\n a=%v\n b=%v", a.View(), b.View())
	}
	if !reflect.DeepEqual(a.Sample(16), b.Sample(16)) {
		t.Errorf("final samples diverged:\n a=%v\n b=%v", a.Sample(16), b.Sample(16))
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged:\n a=%+v\n b=%+v", a.Stats(), b.Stats())
	}
}

// soakResult fingerprints the end state of a byzantine soak run.
type soakResult struct {
	fingerprint   string
	floods        int
	viewByzMax    float64 // worst per-node byzantine fraction of the view
	samplerByzAgg float64 // aggregate byzantine fraction of the samplers
}

// runByzantineSoak simulates honest engines gossiping for the given
// number of rounds while byzFlooders hostile identities push-flood every
// honest node every round and answer any pull with an all-hostile view.
// Pure-engine simulation: deterministic under the fixed seeds.
func runByzantineSoak(t *testing.T, honest, byzFlooders, rounds int) soakResult {
	t.Helper()
	cfg := Config{ViewSize: 8, Interval: time.Second, Seed: 99}
	rng := rand.New(rand.NewSource(7))

	refs := make([]table.Ref, honest)
	engines := make(map[id.ID]*Engine, honest)
	for i := range refs {
		refs[i] = sref(i)
		engines[refs[i].ID] = New(cfg, refs[i])
	}
	byzRefs := make([]table.Ref, byzFlooders)
	byzSet := make(map[id.ID]bool, byzFlooders)
	for i := range byzRefs {
		byzRefs[i] = sref(0x1000 + i)
		byzSet[byzRefs[i].ID] = true
	}
	// Seed every honest view with random honest peers so the exchange
	// graph starts connected and diverse.
	for _, r := range refs {
		e := engines[r.ID]
		for _, j := range rng.Perm(honest)[:cfg.ViewSize] {
			if refs[j].ID != r.ID {
				e.SeedPeers(refs[j])
			}
		}
	}
	order := make([]table.Ref, len(refs))
	copy(order, refs)
	sort.Slice(order, func(i, j int) bool { return order[i].ID.Less(order[j].ID) })

	now := time.Duration(0)
	for round := 0; round < rounds; round++ {
		now += cfg.Interval
		var inbox []msg.Envelope
		for _, r := range order {
			inbox = append(inbox, engines[r.ID].Tick(now)...)
		}
		// The flood: every hostile identity pushes itself at every honest
		// node, every round — orders of magnitude above the honest rate.
		for _, b := range byzRefs {
			for _, r := range order {
				inbox = append(inbox, msg.Envelope{From: b, To: r, Msg: msg.SamplePush{}})
			}
		}
		for len(inbox) > 0 {
			var next []msg.Envelope
			for _, env := range inbox {
				if e, ok := engines[env.To.ID]; ok {
					next = append(next, e.Deliver(env)...)
					continue
				}
				if byzSet[env.To.ID] {
					// A pulled flooder answers with an all-hostile view.
					if _, isPull := env.Msg.(msg.SamplePullReq); isPull {
						next = append(next, msg.Envelope{From: env.To, To: env.From,
							Msg: msg.SamplePullRly{Refs: byzRefs}})
					}
				}
			}
			inbox = next
		}
	}

	var res soakResult
	var fp strings.Builder
	samplerByz, samplerTotal := 0, 0
	for _, r := range order {
		e := engines[r.ID]
		view := e.View()
		if len(view) == 0 {
			t.Fatalf("node %v ended with an empty view", r.ID)
		}
		viewByz := 0
		for _, v := range view {
			fp.WriteString(v.ID.String())
			fp.WriteByte(',')
			if byzSet[v.ID] {
				viewByz++
			}
		}
		fp.WriteByte(';')
		if f := float64(viewByz) / float64(len(view)); f > res.viewByzMax {
			res.viewByzMax = f
		}
		sample := e.Sample(2 * cfg.ViewSize)
		if len(sample) == 0 {
			t.Fatalf("node %v ended with empty samplers", r.ID)
		}
		for _, v := range sample {
			fp.WriteString(v.ID.String())
			fp.WriteByte(',')
			samplerTotal++
			if byzSet[v.ID] {
				samplerByz++
			}
		}
		fp.WriteByte('|')
		res.floods += e.Stats().FloodsDetected
	}
	res.fingerprint = fp.String()
	res.samplerByzAgg = float64(samplerByz) / float64(samplerTotal)
	return res
}

// TestByzantinePushFloodConvergence is the byzantine soak of the issue:
// ~10% of identities are hostile push-flooders, yet honest views and
// samplers must converge to an honest majority. The flood must actually
// trigger the Brahms defense (otherwise the run tested nothing), every
// node's view must stay majority-honest, and the min-wise samplers —
// whose replacement probability is volume-independent — must hold the
// hostile fraction near the hostile share of the ID population. A
// repeat run under the same seeds must reproduce the exact end state.
func TestByzantinePushFloodConvergence(t *testing.T) {
	const honest, byz, rounds = 30, 3, 100
	res := runByzantineSoak(t, honest, byz, rounds)

	if res.floods == 0 {
		t.Error("flood defense never triggered — the soak exerted no pressure")
	}
	if res.viewByzMax >= 0.5 {
		t.Errorf("a view lost its honest majority: worst byzantine fraction %.2f", res.viewByzMax)
	}
	if res.samplerByzAgg > 0.25 {
		t.Errorf("samplers captured by flooders: byzantine fraction %.2f (population share %.2f)",
			res.samplerByzAgg, float64(byz)/float64(honest+byz))
	}

	again := runByzantineSoak(t, honest, byz, rounds)
	if res.fingerprint != again.fingerprint {
		t.Error("soak is not deterministic under fixed seeds")
	}
}

// hashIDOracle is hashID as it stood before the seed's half of the hash
// was computed once per sampler: the whole FNV-1a run, seed bytes then
// digits, for every (sampler, ID) pair.
func hashIDOracle(seed uint64, x id.ID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= seed >> (8 * i) & 0xff
		h *= prime64
	}
	var buf [64]byte
	for _, b := range x.AppendRawDigits(buf[:0]) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// TestSplitHashMatchesOracle checks the split hash against the oracle
// over random seeds and IDs, including IDs longer than the 64-byte
// stack buffer.
func TestSplitHashMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []id.Params{{B: 2, D: 1}, {B: 16, D: 8}, {B: 16, D: 40}, {B: 36, D: 64}, {B: 16, D: 65}, {B: 36, D: 200}} {
		for i := 0; i < 200; i++ {
			seed, x := rng.Uint64(), id.Random(p, rng)
			want := hashIDOracle(seed, x)
			if got := hashDigits(seedState(seed), x.AppendRawDigits(nil)); got != want {
				t.Fatalf("b=%d d=%d seed %#x id %v: split hash %#x, oracle %#x", p.B, p.D, seed, x, got, want)
			}
			if got := hashID(seed, x); got != want {
				t.Fatalf("b=%d d=%d seed %#x id %v: hashID %#x, oracle %#x", p.B, p.D, seed, x, got, want)
			}
		}
	}
}

// TestSamplersKeepOracleMinimum replays the engine's seed draws and
// checks that, after a stream of observations, every sampler holds the
// first reference with the minimum oracle hash under its own seed.
func TestSamplersKeepOracleMinimum(t *testing.T) {
	p := id.Params{B: 16, D: 70}
	r := rand.New(rand.NewSource(3))
	self := table.Ref{ID: id.Random(p, r), Addr: "sim://self"}
	e := New(Config{Seed: 99}, self)
	draws := rng{state: uint64(99) ^ hashIDOracle(0x5a11, self.ID)}
	var refs []table.Ref
	for i := 0; i < 300; i++ {
		refs = append(refs, table.Ref{ID: id.Random(p, r), Addr: fmt.Sprint("sim://", i)})
	}
	e.SeedPeers(refs...)
	for i := range e.samplers {
		seed := draws.next()
		want := refs[0]
		for _, r := range refs[1:] {
			if hashIDOracle(seed, r.ID) < hashIDOracle(seed, want.ID) {
				want = r
			}
		}
		if got := e.samplers[i].cur; got != want {
			t.Errorf("sampler %d holds %v, oracle minimum is %v", i, got.ID, want.ID)
		}
	}
}
