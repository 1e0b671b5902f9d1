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
	"hypercube/internal/splitmix"
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
		e := New(Config{Interval: time.Second, Seed: 42}, sref(1))
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
	cfg := Config{Interval: time.Second, Seed: 99}
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
		for _, j := range rng.Perm(honest)[:viewSize] {
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
		sample := e.Sample(samplers)
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

// samplerOracle is the sampler bank as it stood before observe skipped
// IDs it had ranked: every offer is hashed whole, under every seed, with
// hashIDOracle. banned is the validator's state, shared with the engines.
type samplerOracle struct {
	self   id.ID
	seeds  []uint64
	min    []uint64
	cur    []table.Ref
	banned map[id.ID]bool
}

func (o *samplerOracle) admissible(r table.Ref) bool {
	return !r.IsZero() && r.ID != o.self && !o.banned[r.ID]
}

func (o *samplerOracle) offer(refs ...table.Ref) {
	for _, r := range refs {
		if !o.admissible(r) {
			continue
		}
		for i, seed := range o.seeds {
			if h := hashIDOracle(seed, r.ID); o.cur[i].IsZero() || h < o.min[i] {
				o.min[i], o.cur[i] = h, r
			}
		}
	}
}

// eject empties every sampler whose reference drop names.
func (o *samplerOracle) eject(drop func(id.ID) bool) {
	for i, c := range o.cur {
		if !c.IsZero() && drop(c.ID) {
			o.min[i], o.cur[i] = 0, table.Ref{}
		}
	}
}

func (o *samplerOracle) sample(k int) []table.Ref {
	var out []table.Ref
	for _, c := range o.cur {
		if len(out) < k && o.admissible(c) && !refsContain(out, c.ID) {
			out = append(out, c)
		}
	}
	return out
}

// TestSamplersKeepOracleMinimum drives one engine through a long random
// stream — pushes, pull replies and SeedPeers offering fresh IDs, recent
// and old repeats and known IDs under a new address; validator flips,
// of IDs samplers hold and do not hold, that make the next round's
// sweep eject; rounds; and, in alternate thousands of events, a
// flood of fresh IDs that overflows the known set — and after every
// event requires each sampler's (min, cur) and Sample(k) to equal the
// oracle's, and Stats, View and every round's envelopes to equal those of
// a twin engine whose known set the test empties before each event, so
// that it re-ranks every offer.
func TestSamplersKeepOracleMinimum(t *testing.T) {
	const events = 12000
	p := id.Params{B: 16, D: 70} // longer than observe's stack buffer
	r := rand.New(rand.NewSource(3))
	self := table.Ref{ID: id.Random(p, r), Addr: "sim://self"}
	cfg := Config{Seed: 99}
	e, twin := New(cfg, self), New(cfg, self)
	o := &samplerOracle{self: self.ID, banned: make(map[id.ID]bool)}
	draws := splitmix.New(uint64(99) ^ hashIDOracle(0x5a11, self.ID))
	for range e.samplers {
		o.seeds = append(o.seeds, draws.Next())
	}
	o.min, o.cur = make([]uint64, len(o.seeds)), make([]table.Ref, len(o.seeds))
	for _, eng := range []*Engine{e, twin} {
		eng.SetValidator(func(r table.Ref) bool { return !o.banned[r.ID] })
		eng.Tick(0) // absorbs the stagger: every later Tick is a round
	}

	var seen []table.Ref
	var bannedList, pulled []id.ID
	fresh := func() table.Ref {
		ref := table.Ref{ID: id.Random(p, r), Addr: fmt.Sprint("sim://", len(seen))}
		seen = append(seen, ref)
		return ref
	}
	recent := func() table.Ref { // likely still in the known set
		return seen[len(seen)-1-r.Intn(min(len(seen), 48))]
	}
	pick := func(flood bool) table.Ref {
		x := r.Intn(10)
		switch {
		case len(seen) == 0 || x < 3 || flood && x < 8:
			return fresh()
		case x < 8:
			return recent()
		case x < 9:
			return seen[r.Intn(len(seen))]
		default: // a known ID that moved
			ref := recent()
			ref.Addr += "'"
			return ref
		}
	}
	picks := func(n int, flood bool) []table.Ref {
		refs := make([]table.Ref, n)
		for i := range refs {
			refs[i] = pick(flood)
		}
		return refs
	}
	held := func() id.ID { // some sampler's reference, else a seen or unseen ID
		if c := o.cur[r.Intn(len(o.cur))]; !c.IsZero() && r.Intn(4) > 0 {
			return c.ID
		}
		if len(seen) > 0 && r.Intn(2) == 0 {
			return seen[r.Intn(len(seen))].ID
		}
		return id.Random(p, r)
	}

	now := time.Duration(0)
	bound := knownPerSampler * len(e.samplers)
	overflows, skips := 0, 0
	for i := 0; i < events; i++ {
		flood := i/1000%2 == 1
		clear(twin.known)
		// Outside rounds only an overflow empties the known set.
		known, round := len(e.known), false
		switch x := r.Intn(100); {
		case x < 55:
			env := msg.Envelope{From: pick(flood), To: self, Msg: msg.SamplePush{}}
			if _, hit := e.known[env.From.ID]; hit {
				skips++
			}
			e.Deliver(env)
			twin.Deliver(env)
			o.offer(env.From)
		case x < 70:
			if len(pulled) == 0 {
				continue
			}
			from := pulled[len(pulled)-1]
			pulled = pulled[:len(pulled)-1]
			env := msg.Envelope{From: table.Ref{ID: from, Addr: "sim://pulled"}, To: self,
				Msg: msg.SamplePullRly{Refs: picks(1+r.Intn(8), flood)}}
			e.Deliver(env)
			twin.Deliver(env)
			o.offer(env.Msg.(msg.SamplePullRly).Refs...)
		case x < 80:
			refs := picks(1+r.Intn(4), flood)
			e.SeedPeers(refs...)
			twin.SeedPeers(refs...)
			o.offer(refs...)
		case x < 84 && !flood:
			if len(bannedList) > 0 && r.Intn(3) == 0 {
				delete(o.banned, bannedList[0])
				bannedList = bannedList[1:]
			} else if bad := held(); !o.banned[bad] {
				o.banned[bad] = true
				bannedList = append(bannedList, bad)
			}
		default:
			round = true
			now += time.Second
			out := e.Tick(now)
			if !reflect.DeepEqual(out, twin.Tick(now)) {
				t.Fatalf("event %d: round envelopes diverged from the twin's", i)
			}
			o.eject(func(x id.ID) bool { return o.banned[x] })
			pulled = pulled[:0]
			for _, env := range out {
				if _, ok := env.Msg.(msg.SamplePullReq); ok {
					pulled = append(pulled, env.To.ID)
				}
			}
		}

		if !round && len(e.known) < known {
			overflows++
		}

		fill := 0
		for j := range e.samplers {
			if got := e.samplers[j]; got.min != o.min[j] || got.cur != o.cur[j] {
				t.Fatalf("event %d: sampler %d holds %v (%#x), oracle %v (%#x)", i, j, got.cur, got.min, o.cur[j], o.min[j])
			}
			if !o.cur[j].IsZero() {
				fill++
			}
		}
		if k := r.Intn(2 * len(e.samplers)); !reflect.DeepEqual(e.Sample(k), o.sample(k)) {
			t.Fatalf("event %d: Sample(%d) = %v, oracle %v", i, k, e.Sample(k), o.sample(k))
		}
		if got, want := e.Stats(), twin.Stats(); got != want || got.SamplerFill != fill {
			t.Fatalf("event %d: stats %+v, twin %+v, oracle fill %d", i, got, want, fill)
		}
		if !reflect.DeepEqual(e.View(), twin.View()) {
			t.Fatalf("event %d: view %v, twin %v", i, e.View(), twin.View())
		}
		if len(e.known) > bound {
			t.Fatalf("event %d: %d known IDs, bound %d", i, len(e.known), bound)
		}
	}
	st := e.Stats()
	t.Logf("%d events over %d IDs: %d offers skipped, %d overflows, %d ejected, %d rounds, %d floods",
		events, len(seen), skips, overflows, st.Ejected, st.Rounds, st.FloodsDetected)
	if skips < events/10 || overflows < 5 || st.Ejected < 20 || st.FloodsDetected == 0 || st.FloodsDetected == st.Rounds {
		t.Error("the stream missed a case it exists to cover")
	}
}

// TestKnownOfferAllocatesNothing pins the cost of the common case: a push
// from a peer every sampler has ranked is two map probes and no
// allocation.
func TestKnownOfferAllocatesNothing(t *testing.T) {
	e := New(Config{Seed: 1}, sref(1))
	env := msg.Envelope{From: sref(2), To: sref(1), Msg: msg.SamplePush{}}
	e.Deliver(env)
	if n := testing.AllocsPerRun(100, func() { e.Deliver(env) }); n != 0 {
		t.Errorf("a push from a known peer allocates %.0f times, want 0", n)
	}
}

// BenchmarkObserve times one offer to the sampler bank (viewSize,
// samplers) over the benchmark's 8-digit IDs: of an
// ID every sampler has ranked, and of IDs never seen before.
func BenchmarkObserve(b *testing.B) {
	p := id.Params{B: 16, D: 8}
	r := rand.New(rand.NewSource(1))
	refs := make([]table.Ref, 1<<14)
	for i := range refs {
		refs[i] = table.Ref{ID: id.Random(p, r), Addr: "sim://peer"}
	}
	for _, bc := range []struct {
		name string
		pool []table.Ref
	}{{"known", refs[:64]}, {"new", refs}} {
		b.Run(bc.name, func(b *testing.B) {
			e := New(Config{Seed: 1}, table.Ref{ID: id.Random(p, r), Addr: "sim://self"})
			e.SeedPeers(bc.pool[:64]...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.observe(bc.pool[i%len(bc.pool)])
			}
		})
	}
}
