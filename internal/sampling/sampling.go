// Package sampling implements a Brahms-style byzantine-resistant gossip
// peer-sampling layer (Bortnikov et al., "Brahms: Byzantine Resilient
// Random Membership Sampling").
//
// Each node keeps a small bounded view of peer references, refreshed
// every round by a push-pull exchange: it pushes its own reference to a
// few view members, pulls the views of a few others, and rebuilds the
// view as a mix of α·l pushed peers, β·l pulled peers, and γ·l history
// samples. The history comes from min-wise independent samplers: each
// sampler slot draws a random hash function at birth and keeps the
// reference with the minimum hash among everything it has ever observed,
// which converges to a uniform sample of all peer IDs ever seen — an
// adversary that floods pushes can bias the *view* for a while, but a
// sampler only replaces its element when the flooded ID hashes lower,
// which happens with probability 1/(ids observed), independent of volume.
// Two further defenses: a round that receives more pushes than α·l keeps
// the previous view wholesale (flood detection), and pull replies are
// accepted only from peers actually pulled this round.
//
// Because a sampler keeps only a minimum, offering it an ID it has
// already ranked changes nothing: same hash, strict <, so not even a new
// address for the ID replaces the held reference. The engine keeps the
// set of IDs every sampler has ranked since the last time any sampler was
// emptied, and an offer of a member returns before hashing — in a
// converged network nearly every pushed or pulled reference is one. The
// invariant is "each sampler's minimum ≤ the hash of every member": a
// sampler emptied by sweep has ranked nothing, so any ejection empties
// the set, and (min, cur) is always what hashing every offer would have
// left. The set is emptied when it reaches knownPerSampler·samplers
// IDs, so a Sybil flood of fresh IDs costs what it did without the set,
// plus a map insert, and pins bounded memory.
//
// The layer feeds every recovery path that would otherwise depend on a
// static bootstrap set: gateway selection for join restarts, rejoin after
// restart, and anti-entropy sync-peer choice. A validator hook (wired to
// the guard scorer's quarantine state) ejects misbehaving peers from
// both the view and the samplers.
package sampling

import (
	"slices"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/obs"
	"hypercube/internal/splitmix"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// Config parameterizes one engine. The zero value gets defaults.
type Config struct {
	// Interval is the round period. Defaults to 1s.
	Interval time.Duration
	// Seed makes every engine's randomness deterministic: the per-node
	// stream is derived from Seed mixed with the node's own ID.
	Seed int64
}

// WithDefaults returns c with every unset field at its documented
// default: the values an Engine built from c runs with.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

const (
	// viewSize is l, the bound on the local view. Brahms suggests
	// l ≈ n^(1/3); 16 covers n up to ~4k. A pull reply carries the whole
	// view, so it must not exceed msg.MaxSampleRefs.
	viewSize = 16
	// samplers is the number of min-wise independent samplers backing
	// the history sample.
	samplers = 2 * viewSize
)

// The view mixing weights α, β, γ for pushed peers, pulled peers and
// history samples: the Brahms exemplar's 0.45/0.45/0.10.
const alphaWeight, betaWeight, gammaWeight = 0.45, 0.45, 0.10

// Stats counts engine activity for reporting.
type Stats struct {
	Rounds         int `json:"rounds"` // push-pull rounds run
	PushesSent     int `json:"pushesSent"`
	PushesReceived int `json:"pushesReceived"`
	PullsSent      int `json:"pullsSent"`
	PullsAnswered  int `json:"pullsAnswered"`
	// FloodsDetected counts rounds whose push volume exceeded α·l and
	// whose view update was therefore skipped.
	FloodsDetected int `json:"floodsDetected"`
	// Ejected counts references removed from view or samplers by the
	// validator (quarantine).
	Ejected int `json:"ejected"`
	// ViewSize and SamplerFill describe current occupancy.
	ViewSize    int `json:"viewSize" metric:"gauge"`
	SamplerFill int `json:"samplerFill" metric:"gauge"`
}

// sampler is one min-wise independent sampler: a fixed random hash
// function and the reference with the minimum hash observed so far.
type sampler struct {
	state uint64 // seedState of the sampler's seed: hashID's per-slot half
	min   uint64
	cur   table.Ref
}

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashID is FNV-1a over the sampler seed and the ID's raw digits — a
// cheap stand-in for the min-wise independent hash family; the seed is
// drawn per sampler at engine birth and unknown to remote peers.
func hashID(seed uint64, x id.ID) uint64 {
	var buf [64]byte
	return hashDigits(seedState(seed), x.AppendRawDigits(buf[:0]))
}

// seedState runs hashID's first half, over the eight bytes of seed.
func seedState(seed uint64) uint64 {
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= seed >> (8 * i) & 0xff
		h *= prime64
	}
	return h
}

// hashDigits runs hashID's second half, from state over an ID's digits.
func hashDigits(state uint64, raw []byte) uint64 {
	for _, b := range raw {
		state ^= uint64(b)
		state *= prime64
	}
	return state
}

// Engine runs the sampling protocol for one node. Not safe for
// concurrent use; like the protocol machine, a runtime drives it from a
// single goroutine or under a lock.
type Engine struct {
	cfg  Config
	self table.Ref
	// rnd is this node's own stream, seeded from (Seed, node ID), so
	// nodes draw independently without sharing a math/rand source.
	rnd splitmix.Stream

	view []table.Ref
	// sorted is View's answer until the view changes; in-flight pull
	// replies share it, so it is replaced, never rewritten. reply is the
	// pull reply carrying it, boxed once with it. The rest is scratch
	// reused between calls: the next view's buffer, the shuffle pool,
	// pickRandom's draw and the result of Tick or Deliver.
	sorted, spare, pool, picked []table.Ref
	reply                       msg.Message
	out                         []msg.Envelope

	pushBuf  map[id.ID]table.Ref
	pullBuf  map[id.ID]table.Ref
	pullFrom map[id.ID]bool

	samplers []sampler
	// known holds IDs every sampler has ranked since the last reset of any
	// sampler; observe skips them (see the package comment).
	known map[id.ID]struct{}

	validate  func(table.Ref) bool
	bootstrap func() []table.Ref

	// Observability (nil when tracing is off; see SetSink). tracer,
	// when non-nil, roots one span per gossip round (see SetTracer).
	sink     obs.Sink
	selfName string
	tracer   *trace.Tracer

	next  time.Duration
	first bool
	stats Stats
}

// New builds an engine for self. Determinism: the same (cfg.Seed, self)
// always yields the same random stream, sampler hash seeds, and round
// stagger.
func New(cfg Config, self table.Ref) *Engine {
	cfg = cfg.WithDefaults()
	e := &Engine{
		cfg:      cfg,
		self:     self,
		rnd:      splitmix.New(uint64(cfg.Seed) ^ hashID(0x5a11, self.ID)),
		pushBuf:  make(map[id.ID]table.Ref),
		pullBuf:  make(map[id.ID]table.Ref),
		pullFrom: make(map[id.ID]bool),
		samplers: make([]sampler, samplers),
		known:    make(map[id.ID]struct{}),
		first:    true,
	}
	for i := range e.samplers {
		e.samplers[i].state = seedState(e.rnd.Next())
	}
	return e
}

// SetValidator installs the acceptance predicate: references it rejects
// are never admitted and are ejected from view and samplers at each
// round. Wire it to the guard scorer's quarantine check.
func (e *Engine) SetValidator(f func(table.Ref) bool) { e.validate = f }

// SetBootstrap installs a fallback source of peers consulted when a
// round starts with an empty view (fresh node, or every view member
// ejected). Wire it to the machine's live table peers.
func (e *Engine) SetBootstrap(f func() []table.Ref) { e.bootstrap = f }

// SetSink installs the protocol-event sink; nil or obs.Nop turns tracing
// off (the default). Wrap with obs.Clocked so the driving runtime stamps
// Event.T.
func (e *Engine) SetSink(s obs.Sink) {
	if obs.IsNop(s) {
		e.sink = nil
		return
	}
	e.sink = s
	e.selfName = e.self.ID.String()
}

// SetTracer installs the span-context source for causal tracing; nil
// turns it off (the default). Each (sampled) gossip round is a traced
// operation root; pushes and pulls ride child spans, and pull replies
// descend from the request's hop span.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

func (e *Engine) admissible(r table.Ref) bool {
	if r.IsZero() || r.ID == e.self.ID {
		return false
	}
	return e.validate == nil || e.validate(r)
}

// SeedPeers primes the view and samplers with initial contacts.
func (e *Engine) SeedPeers(refs ...table.Ref) {
	for _, r := range refs {
		if !e.admissible(r) {
			continue
		}
		e.observe(r)
		if len(e.view) < viewSize && !refsContain(e.view, r.ID) {
			e.view = append(e.view, r)
			e.sorted = nil
		}
	}
}

// knownPerSampler bounds the known set at this multiple of samplers
// (512 IDs): every peer of a network of a few hundred nodes, two thirds
// of the offers at n = 2048 (DESIGN.md has the sweep), and the most a
// flood of fresh IDs can pin.
const knownPerSampler = 16

// observe offers r to every sampler, reading its digits once — unless
// every sampler has already ranked r.ID, when no minimum can move.
func (e *Engine) observe(r table.Ref) {
	if _, ok := e.known[r.ID]; ok {
		return
	}
	if len(e.known) >= knownPerSampler*samplers {
		clear(e.known)
	}
	e.known[r.ID] = struct{}{}
	var buf [64]byte
	raw := r.ID.AppendRawDigits(buf[:0])
	for i := range e.samplers {
		s := &e.samplers[i]
		if h := hashDigits(s.state, raw); s.cur.IsZero() || h < s.min {
			s.min, s.cur = h, r
		}
	}
}

// Deliver handles one sampling message and returns any replies, in the
// engine's own buffer, valid until its next Deliver or Tick. Callers
// route TSamplePush, TSamplePullReq, and TSamplePullRly here; other
// types are ignored.
func (e *Engine) Deliver(env msg.Envelope) []msg.Envelope {
	switch env.Msg.(type) {
	case msg.SamplePush:
		e.stats.PushesReceived++
		if e.admissible(env.From) {
			e.pushBuf[env.From.ID] = env.From
			e.observe(env.From)
		}
	case msg.SamplePullReq:
		if !e.admissible(env.From) {
			return nil
		}
		e.stats.PullsAnswered++
		e.View() // builds e.reply along with the sorted view
		rly := msg.Envelope{From: e.self, To: env.From, Msg: e.reply}
		// The reply is its own hop: a child span of the request's, so
		// the round tree keeps the request→reply causality. Tracerless
		// engines drop the context (opaque hop).
		if e.tracer != nil && env.Trace.Sampled() {
			rly.Trace = e.tracer.Child(env.Trace)
			if e.sink != nil {
				e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindRecv, Peer: env.From.ID, Msg: env.Msg.Type().String()}.Stamped(env.Trace, trace.SpanID{}))
				e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindSend, Peer: env.From.ID, Msg: rly.Msg.Type().String()}.Stamped(rly.Trace, env.Trace.Span))
			}
		}
		e.out = append(e.out[:0], rly)
		return e.out
	case msg.SamplePullRly:
		// Unsolicited pull replies are an attack vector (they would let a
		// flooder inject arbitrary references); accept only from peers we
		// pulled this round, once.
		if !e.pullFrom[env.From.ID] {
			return nil
		}
		delete(e.pullFrom, env.From.ID)
		m := env.Msg.(msg.SamplePullRly)
		refs := m.Refs
		if len(refs) > msg.MaxSampleRefs {
			refs = refs[:msg.MaxSampleRefs]
		}
		for _, r := range refs {
			if e.admissible(r) {
				e.pullBuf[r.ID] = r
				e.observe(r)
			}
		}
	}
	return nil
}

// Tick runs at most one push-pull round when the round period elapsed,
// returning the envelopes to transmit, in the buffer Deliver also
// returns. The first round is staggered per node so a synchronized start
// does not thundering-herd the network.
func (e *Engine) Tick(now time.Duration) []msg.Envelope {
	if e.first {
		e.first = false
		e.next = now + time.Duration(hashID(0x57a6, e.self.ID)%uint64(e.cfg.Interval))
	}
	if now < e.next {
		return nil
	}
	e.next = now + e.cfg.Interval
	return e.round()
}

func (e *Engine) round() []msg.Envelope {
	e.stats.Rounds++
	e.sweep()

	alpha := scaled(alphaWeight, viewSize)
	beta := scaled(betaWeight, viewSize)
	gamma := scaled(gammaWeight, viewSize)

	// Close the previous round: rebuild the view from its pushes, pulls,
	// and history — unless the push volume exceeded α·l, the Brahms flood
	// signature, in which case the previous view survives unchanged and
	// only the (flood-resistant) samplers saw the attack traffic.
	if len(e.pushBuf) > alpha {
		e.stats.FloodsDetected++
		if e.sink != nil {
			e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindSampleFlood, N: len(e.pushBuf)})
		}
	} else if len(e.pushBuf) > 0 && len(e.pullBuf) > 0 {
		fresh := e.spare[:0]
		fresh = e.appendRandom(fresh, e.mapRefs(e.pushBuf), alpha)
		fresh = e.appendRandom(fresh, e.mapRefs(e.pullBuf), beta)
		fresh = e.appendRandom(fresh, e.history(), gamma)
		e.spare = fresh
		if len(fresh) > 0 {
			e.view, e.spare, e.sorted = fresh, e.view, nil
		}
	}
	clear(e.pushBuf)
	clear(e.pullBuf)
	clear(e.pullFrom)

	// An empty view means the node is isolated; re-prime from the
	// bootstrap source (live table peers) before gossiping.
	if len(e.view) == 0 && e.bootstrap != nil {
		e.SeedPeers(e.bootstrap()...)
	}
	if len(e.view) == 0 {
		return nil
	}

	// Open the next round: push self to α·l view members, pull from β·l.
	// A sampled round roots one span; each push and pull rides its own
	// child span.
	var ctx trace.Context
	if e.tracer != nil {
		ctx = e.tracer.Root()
	}
	out := e.out[:0]
	for _, to := range e.pickRandom(e.view, alpha) {
		out = append(out, e.traced(msg.Envelope{From: e.self, To: to, Msg: msg.SamplePush{}}, ctx))
		e.stats.PushesSent++
	}
	for _, to := range e.pickRandom(e.view, beta) {
		out = append(out, e.traced(msg.Envelope{From: e.self, To: to, Msg: msg.SamplePullReq{}}, ctx))
		e.pullFrom[to.ID] = true
		e.stats.PullsSent++
	}
	if e.sink != nil {
		e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindSampleRound, N: len(e.view)}.Stamped(ctx, trace.SpanID{}))
	}
	e.out = out
	return out
}

// traced gives env a child span of the round context and emits its
// send-side event; unsampled rounds pass through untouched.
func (e *Engine) traced(env msg.Envelope, ctx trace.Context) msg.Envelope {
	if e.tracer == nil || !ctx.Sampled() {
		return env
	}
	env.Trace = e.tracer.Child(ctx)
	if e.sink != nil {
		e.sink.Emit(obs.Event{Node: e.selfName, Kind: obs.KindSend, Peer: env.To.ID, Msg: env.Msg.Type().String()}.Stamped(env.Trace, ctx.Span))
	}
	return env
}

// sweep re-validates the view and samplers, ejecting references the
// validator now rejects (e.g. freshly quarantined peers).
func (e *Engine) sweep() {
	if e.validate == nil {
		return
	}
	kept := e.view[:0]
	for _, r := range e.view {
		if e.admissible(r) {
			kept = append(kept, r)
		} else {
			e.stats.Ejected++
			e.sorted = nil
		}
	}
	e.view = kept
	for i := range e.samplers {
		if cur := e.samplers[i].cur; !cur.IsZero() && !e.admissible(cur) {
			e.resetSampler(i)
		}
	}
}

// resetSampler ejects sampler i's reference. The emptied sampler has
// ranked nothing, so nothing is known to all samplers any more.
func (e *Engine) resetSampler(i int) {
	e.samplers[i].min, e.samplers[i].cur = 0, table.Ref{}
	e.stats.Ejected++
	clear(e.known)
}

// View returns the current view, ascending by ID (the canonical wire
// order of SamplePullRly). Calls between view changes return the same
// slice; callers must not modify it.
func (e *Engine) View() []table.Ref {
	if e.sorted == nil {
		e.sorted = make([]table.Ref, len(e.view))
		copy(e.sorted, e.view)
		slices.SortFunc(e.sorted, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
		e.reply = msg.SamplePullRly{Refs: e.sorted}
	}
	return e.sorted
}

// Sample returns up to k distinct references from the min-wise samplers
// — the byzantine-resistant long-term sample. Slot order is preserved,
// so a fixed seed yields a deterministic result.
func (e *Engine) Sample(k int) []table.Ref {
	var out []table.Ref
	for i := range e.samplers {
		if len(out) >= k {
			break
		}
		cur := e.samplers[i].cur
		if cur.IsZero() || refsContain(out, cur.ID) || !e.admissible(cur) {
			continue
		}
		out = append(out, cur)
	}
	return out
}

// Stats returns a snapshot of the engine's counters and occupancy.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.ViewSize = len(e.view)
	for i := range e.samplers {
		if !e.samplers[i].cur.IsZero() {
			st.SamplerFill++
		}
	}
	return st
}

// appendRandom moves up to n entries of pool into dst, skipping IDs
// already present, consuming pool in random order.
func (e *Engine) appendRandom(dst, pool []table.Ref, n int) []table.Ref {
	for n > 0 && len(pool) > 0 {
		i := e.rnd.Intn(len(pool))
		r := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if refsContain(dst, r.ID) {
			continue
		}
		dst = append(dst, r)
		n--
	}
	return dst
}

// pickRandom returns up to n distinct random entries of view (e.picked).
func (e *Engine) pickRandom(view []table.Ref, n int) []table.Ref {
	pool := append(e.pool[:0], view...)
	e.pool = pool
	out := e.picked[:0]
	for n > 0 && len(pool) > 0 {
		i := e.rnd.Intn(len(pool))
		out = append(out, pool[i])
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		n--
	}
	e.picked = out
	return out
}

// history returns the sampler contents as a shuffle pool (e.pool).
func (e *Engine) history() []table.Ref {
	out := e.pool[:0]
	for i := range e.samplers {
		if cur := e.samplers[i].cur; !cur.IsZero() {
			out = append(out, cur)
		}
	}
	e.pool = out
	return out
}

// mapRefs flattens a buffer map into e.pool in deterministic (sorted)
// order so the random draws replay identically under a fixed seed.
func (e *Engine) mapRefs(m map[id.ID]table.Ref) []table.Ref {
	out := e.pool[:0]
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b table.Ref) int { return a.ID.Compare(b.ID) })
	e.pool = out
	return out
}

func refsContain(refs []table.Ref, x id.ID) bool {
	for _, r := range refs {
		if r.ID == x {
			return true
		}
	}
	return false
}

// scaled returns max(1, round(f·l)) — every mixing class contributes at
// least one slot so degenerate weights cannot zero out a component.
func scaled(f float64, l int) int {
	n := int(f*float64(l) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
