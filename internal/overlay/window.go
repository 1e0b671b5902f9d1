package overlay

// Delivery windows (sim.RunWindowed; DESIGN.md has the argument): a
// window's arrivals run deliver's node-local half ahead on every core,
// each recipient's in order on one goroutine; deliver applies the rest.

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"hypercube/internal/msg"
	"hypercube/internal/node"
	"hypercube/internal/sim"
)

const (
	minParallelWindow = 8                    // arrivals per goroutine, at least
	bucketsPerWorker  = 8                    // recipient groups per goroutine
	helperSpin        = 2 * time.Millisecond // a helper's wait for the next window
)

// handover is what deliver's node-local half of an arrival yields.
type handover struct {
	out    []msg.Envelope
	rec    JoinRecord
	joined bool
}

// windows is the window being prepared, buffers reused. claims packs its
// number (high 32 bits), bucket count and next unclaimed bucket (16 bits
// each), so a helper late from an old window claims nothing of a new one.
type windows struct {
	events   []sim.Event
	ahead    []handover       // by window position (transmission.ahead)
	bucket   []int32          // by window position: the recipient's
	arenas   [][]msg.Envelope // by bucket: the outputs, copied
	claims   atomic.Uint64
	finished atomic.Int32 // buckets done
	live     atomic.Int32 // helper goroutines
	parallel uint64       // windows run on helper goroutines
}

// width is the arrivals' lookahead: the latency floor, or 0 (one event at
// a time) while a fault model or observer is armed (DESIGN.md says why).
func (n *Network) width() time.Duration {
	if n.cfg.Loss != nil || n.cfg.Byzantine != nil || len(n.partition) > 0 || len(n.paused) > 0 ||
		len(n.slow) > 0 || n.sink != nil || n.cfg.TraceSample > 0 {
		return 0
	}
	return n.cfg.Latency.lowest()
}

// prepare runs a window's node-local halves on up to GOMAXPROCS goroutines.
func (n *Network) prepare(events []sim.Event) {
	workers := min(runtime.GOMAXPROCS(0), len(events)/minParallelWindow, 1024) // buckets fit 16 bits
	if workers < 2 {
		return
	}
	w, buckets := &n.win, workers*bucketsPerWorker
	w.events, w.bucket = events, w.bucket[:0]
	w.ahead = slices.Grow(w.ahead[:0], len(events))[:len(events)]
	for i, ev := range events {
		t := &n.inFlight[ev.Arg]
		x := t.env.To.ID // the recipient's first and last digits pick its bucket
		t.ahead, w.bucket = int32(i+1), append(w.bucket, int32((x.Digit(0)*37+x.Digit(x.Len()-1))%buckets))
	}
	w.arenas = append(w.arenas, make([][]msg.Envelope, max(buckets-len(w.arenas), 0))...)
	w.finished.Store(0)
	gen := w.claims.Load()>>32 + 1
	w.claims.Store(gen<<32 | uint64(buckets)<<16)
	for w.live.Load() < int32(workers-1) {
		w.live.Add(1)
		go n.help()
	}
	n.handOverBuckets(gen)
	for int(w.finished.Load()) < buckets {
		runtime.Gosched() // a helper is finishing its last bucket
	}
	w.parallel++
}

// help works on each window published while it runs and exits once none
// came for helperSpin (the caller does a window's share left by it).
func (n *Network) help() {
	w := &n.win
	for done, idle := uint64(0), time.Now(); ; runtime.Gosched() {
		if gen := w.claims.Load() >> 32; gen != done {
			n.handOverBuckets(gen)
			done, idle = gen, time.Now()
		} else if time.Since(idle) > helperSpin {
			w.live.Add(-1)
			return
		}
	}
}

// handOverBuckets claims window gen's buckets one at a time and runs their
// arrivals' node-local halves, copying each output into the bucket's arena.
func (n *Network) handOverBuckets(gen uint64) {
	w := &n.win
	for b := w.claim(gen); b >= 0; b = w.claim(gen) {
		arena := w.arenas[b][:0]
		for i, ev := range w.events {
			if w.bucket[i] != b {
				continue
			}
			env := n.inFlight[ev.Arg].env
			nd, ok := n.nodes[env.To.ID]
			if !ok {
				continue // deliver drops it
			}
			h := n.handOver(nd, env, ev.At)
			lo := len(arena)
			arena = append(arena, h.out...)
			h.out = arena[lo:len(arena):len(arena)]
			w.ahead[i] = h
		}
		w.arenas[b] = arena
		w.finished.Add(1)
	}
}

// claim hands out window gen's next bucket, -1 once none is left.
func (w *windows) claim(gen uint64) int32 {
	for {
		c := w.claims.Load()
		if c>>32 != gen || uint16(c) == uint16(c>>16) {
			return -1
		}
		if w.claims.CompareAndSwap(c, c+1) {
			return int32(uint16(c))
		}
	}
}

// handOver is deliver's node-local half: nd takes env at now, and the
// join's record is kept if that completed one. It changes only nd.
func (n *Network) handOver(nd *node.Node, env msg.Envelope, now time.Duration) (h handover) {
	h.out = nd.Deliver(env, now)
	if started, joining := n.joinersInFlight[env.To.ID]; joining && nd.Machine().IsSNode() {
		m := nd.Machine()
		c := m.Counters()
		h.joined, h.rec = true, JoinRecord{Ref: m.Self(), Started: started, Ended: now,
			JoinNotiSent: c.SentOf(msg.TJoinNoti), CpRstSent: c.SentOf(msg.TCpRst),
			JoinWaitSent: c.SentOf(msg.TJoinWait), SpeNotiSent: c.SentOf(msg.TSpeNoti),
			BytesSent: c.BytesSent}
	}
	return h
}
