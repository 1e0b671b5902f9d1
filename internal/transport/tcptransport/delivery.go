package tcptransport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/node"
	"hypercube/internal/obs"
	"hypercube/internal/sampling"
	"hypercube/internal/wire"
)

// Config is a node's stack — the parts internal/node composes onto the
// machine — plus what only a TCP node has: its polling period and its
// trace ring. The zero value is usable: a bare protocol node polling
// every 20ms.
//
// The reliable-delivery layer itself has no knobs. The paper's
// correctness argument (Theorems 1–2) assumes reliable message passing;
// over real networks that assumption must be earned. Each node
// therefore keeps one outbound queue of at most queueLimit envelopes
// per peer. While a queue holds envelopes, one writer goroutine drains
// it: it dials on demand (dialTimeout), redials on stale connections,
// makes up to maxAttempts tries per frame with exponential backoff from
// baseBackoff to maxBackoff plus jitter, and exits once the queue is
// empty. Messages that exhaust their attempts are dead-lettered and
// surface in msg.Counters as Dropped.
type Config struct {
	// Config is the node's parts. Its Sink, when non-nil, receives every
	// protocol event stamped with wall time since node start (e.g. an
	// obs.JSONL trace file) and must be safe for concurrent use; metrics
	// are collected regardless. Its Tracer, when non-nil, makes the node
	// a traced hop: it samples operation roots, and sampled context
	// rides the wire so downstream nodes continue the trace. Without
	// one the node ignores inbound contexts — an opaque hop.
	node.Config
	// PollInterval is AwaitStatus's polling period. Default 20ms.
	PollInterval time.Duration
	// TraceRing, when positive, keeps the newest TraceRing events in an
	// in-memory ring drained via Node.DrainTrace and GET /trace on the
	// admin API. 0 disables the ring.
	TraceRing int

	// dial opens every outbound connection; net.DialTimeout over TCP by
	// default. Tests substitute a dialer that blocks, or one whose
	// connections fail, delay or drop writes.
	dial func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 20 * time.Millisecond
	}
	if c.dial == nil {
		c.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// The delivery layer's bounds. Every deployment runs these values.
const (
	// maxAttempts is the number of delivery attempts per frame (dial +
	// write counts as one attempt).
	maxAttempts = 5
	// baseBackoff is the delay before the first retry; it doubles per
	// subsequent retry up to maxBackoff.
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = time.Second
	// dialTimeout bounds each TCP dial.
	dialTimeout = 5 * time.Second
	// queueLimit bounds each per-peer outbound queue; envelopes that
	// would overflow it are dead-lettered.
	queueLimit = 4096
	// writeTimeout bounds each outbound frame write; a stalled peer
	// fails the attempt into the normal retry path instead of wedging
	// the writer goroutine.
	writeTimeout = 10 * time.Second
)

// Option adjusts a node's Config at start time; options apply in order.
// WithConfig replaces the whole configuration, and each of the others
// sets one field of it.
type Option func(*Config)

// WithConfig replaces the whole configuration.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithPollInterval sets AwaitStatus's polling period.
func WithPollInterval(d time.Duration) Option {
	return func(c *Config) { c.PollInterval = d }
}

// WithLiveness enables the failure detector with the given tuning.
func WithLiveness(lc liveness.Config) Option {
	return func(c *Config) { c.Liveness = &lc }
}

// WithSampling enables the gossip peer-sampling layer with the given
// tuning.
func WithSampling(sc sampling.Config) Option {
	return func(c *Config) { c.Sampling = &sc }
}

// WithAntiEntropy enables periodic anti-entropy rounds with the given
// tuning.
func WithAntiEntropy(ac antientropy.Config) Option {
	return func(c *Config) { c.AntiEntropy = &ac }
}

// peerQueue is one peer's outbound mailbox plus the connection and the
// batch buffer its writer goroutine uses. At most one writer runs per
// queue (running), and only while the queue holds envelopes: push
// starts it, popBatch retires it. The connection and the buffer outlive
// the writer, so the next one reuses both. The writer owns conn; other
// goroutines may only nil-and-close it under mu (queue close), which
// the writer observes as a failed write.
type peerQueue struct {
	addr string

	mu      sync.Mutex
	queue   []msg.Envelope
	batch   []msg.Envelope // the writer's current batch; grown on demand
	running bool
	closed  bool
	conn    net.Conn
}

// push enqueues env and, if no writer is running, starts one. It reports
// false if the queue is closed or full. The writer is started under mu,
// so Close — which closes every queue before waiting on n.wg — can
// never miss it.
func (n *Node) push(pq *peerQueue, env msg.Envelope) bool {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.closed || len(pq.queue) >= queueLimit {
		return false
	}
	pq.queue = append(pq.queue, env)
	if !pq.running {
		pq.running = true
		n.writers.Add(1)
		n.wg.Add(1)
		go n.writeLoop(pq)
	}
	return true
}

// popBatch moves up to max pending envelopes into the queue's batch
// buffer and returns it. With nothing pending it retires the writer
// instead: it clears running, empties the buffer (so parked envelopes
// pin no memory) and reports false.
func (pq *peerQueue) popBatch(max int) ([]msg.Envelope, bool) {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if len(pq.queue) == 0 {
		pq.running = false
		clear(pq.batch)
		pq.batch = pq.batch[:0]
		return nil, false
	}
	k := min(len(pq.queue), max)
	pq.batch = append(pq.batch[:0], pq.queue[:k]...)
	pq.queue = pq.queue[k:]
	return pq.batch, true
}

// depth returns how many envelopes are waiting in the queue.
func (pq *peerQueue) depth() int {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return len(pq.queue)
}

// close shuts the queue and its connection; pending envelopes are
// returned so the caller can dead-letter them.
func (pq *peerQueue) close() []msg.Envelope {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	pq.closed = true
	if pq.conn != nil {
		pq.conn.Close()
		pq.conn = nil
	}
	pending := pq.queue
	pq.queue = nil
	return pending
}

// killConn closes the current connection (if any) without closing the
// queue; the writer redials on the next attempt. Outbound connections
// carry no inbound data, so closing them cannot discard received
// bytes: envelopes already written are flushed to the peer with the
// FIN.
func (pq *peerQueue) killConn() bool {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.conn == nil {
		return false
	}
	pq.conn.Close()
	pq.conn = nil
	return true
}

// current returns the connection the writer should use, or nil if it
// must dial first.
func (pq *peerQueue) current() net.Conn {
	pq.mu.Lock()
	defer pq.mu.Unlock()
	return pq.conn
}

// install stores a freshly dialed connection, closing any connection it
// displaces (so a redial can never leak the old socket). It reports
// false — and closes conn — if the queue already closed.
func (pq *peerQueue) install(conn net.Conn) bool {
	pq.mu.Lock()
	if pq.closed {
		pq.mu.Unlock()
		conn.Close()
		return false
	}
	if pq.conn != nil && pq.conn != conn {
		pq.conn.Close()
	}
	pq.conn = conn
	pq.mu.Unlock()
	return true
}

// writeLoop drains one peer's queue until it is empty, then exits; the
// next push starts a new writer. Each round grabs every envelope already
// pending (up to wire.MaxBatch) and hands the batch to deliverBatch, so
// envelopes queued while a write is under way ride in the next frame
// together.
func (n *Node) writeLoop(pq *peerQueue) {
	defer n.wg.Done()
	defer n.writers.Add(-1)
	for {
		batch, ok := pq.popBatch(wire.MaxBatch)
		if !ok {
			return
		}
		n.deliverBatch(pq, batch)
	}
}

// framePool recycles outbound frame buffers across flushes so the
// steady-state encode path allocates nothing.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// deliverBatch writes one batch of envelopes to the peer, coalesced
// greedily into multi-envelope frames: a frame is flushed when appending
// the next envelope would push its payload past maxFrameBytes (so every
// coalesced frame respects the receiver's limit by construction) or when
// it reaches wire.MaxBatch records.
func (n *Node) deliverBatch(pq *peerQueue, batch []msg.Envelope) {
	bufp := framePool.Get().(*[]byte)
	frame := (*bufp)[:0]
	kinds := make([]msg.Type, 0, len(batch))
	flush := func() {
		if len(kinds) == 0 {
			return
		}
		wire.SetCount(frame[frameHeaderLen:], len(kinds))
		if err := finishBinaryFrame(frame); err != nil {
			for _, t := range kinds {
				n.countDropped(t)
			}
		} else {
			n.sendFrame(pq, frame, kinds)
		}
		frame = frame[:0]
		kinds = kinds[:0]
	}
	for _, env := range batch {
		if len(frame) == 0 {
			frame = append(frame, make([]byte, frameHeaderLen)...)
			frame = wire.AppendHeader(frame)
		}
		mark := len(frame)
		next, err := wire.AppendEnvelope(frame, n.params, env)
		if err != nil {
			// Unencodable message: retrying cannot help.
			n.countDropped(env.Msg.Type())
			continue
		}
		if len(next)-frameHeaderLen > maxFrameBytes && len(kinds) > 0 {
			// Doesn't fit alongside the others: flush what we have and
			// re-append into a fresh frame. A lone envelope bigger than
			// maxFrameBytes still ships in its own frame (the receiver's
			// limit, not ours, judges it).
			frame = next[:mark]
			flush()
			frame = append(frame, make([]byte, frameHeaderLen)...)
			frame = wire.AppendHeader(frame)
			if next, err = wire.AppendEnvelope(frame, n.params, env); err != nil {
				n.countDropped(env.Msg.Type())
				continue
			}
		}
		frame = next
		kinds = append(kinds, env.Msg.Type())
		if len(kinds) == wire.MaxBatch {
			flush()
		}
	}
	flush()
	*bufp = frame[:0]
	framePool.Put(bufp)
}

// sendFrame makes up to maxAttempts tries at writing one pre-encoded
// frame, redialing as needed, backing off exponentially (with jitter)
// between tries. Retries and exhaustion are counted once per envelope
// the frame carries; exhausted envelopes are dead-lettered into the
// node's counters.
func (n *Node) sendFrame(pq *peerQueue, frame []byte, kinds []msg.Type) {
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			for _, t := range kinds {
				n.countRetried(t)
			}
			if !n.sleep(n.backoff(attempt - 1)) {
				break // node shutting down
			}
		}
		if n.writeOnce(pq, frame) {
			return
		}
	}
	for _, t := range kinds {
		n.countDropped(t)
	}
}

// backoff returns the delay before the retry-th retry: exponential from
// baseBackoff, capped at maxBackoff, plus up to 50% random jitter so
// synchronized retry storms decorrelate.
func (n *Node) backoff(retry int) time.Duration {
	d := baseBackoff << (retry - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleep waits for d, returning false if the node shut down first.
func (n *Node) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-n.done:
		return false
	}
}

// writeOnce performs one delivery attempt: ensure a connection, write
// the frame under the write deadline. It reports success; on failure
// the connection is torn down so the next attempt redials.
func (n *Node) writeOnce(pq *peerQueue, frame []byte) bool {
	conn := pq.current()
	if conn == nil {
		c, err := n.cfg.dial(pq.addr, dialTimeout)
		if err != nil {
			return false
		}
		if !pq.install(c) {
			return false
		}
		conn = c
	}
	if err := writeFrame(conn, frame, writeTimeout); err != nil {
		pq.killConn()
		return false
	}
	return true
}

// enqueue hands env to its peer's queue, creating the queue on first
// use. Queue overflow dead-letters the envelope and returns an error.
func (n *Node) enqueue(env msg.Envelope) error {
	n.peersMu.Lock()
	if n.closed {
		n.peersMu.Unlock()
		return fmt.Errorf("tcptransport: node closed")
	}
	pq, ok := n.peers[env.To.Addr]
	if !ok {
		pq = &peerQueue{addr: env.To.Addr}
		n.peers[env.To.Addr] = pq
	}
	n.peersMu.Unlock()
	if !n.push(pq, env) {
		n.countDropped(env.Msg.Type())
		return fmt.Errorf("tcptransport: outbound queue to %s full (limit %d)", env.To.Addr, queueLimit)
	}
	return nil
}

func (n *Node) countRetried(t msg.Type) {
	n.mu.Lock()
	n.node.Machine().Counters().CountRetried(t)
	n.mu.Unlock()
	n.emitTransport(obs.KindRetry, t.String())
}

func (n *Node) countDropped(t msg.Type) {
	n.mu.Lock()
	n.node.Machine().Counters().CountDropped(t)
	n.mu.Unlock()
	n.emitTransport(obs.KindDrop, t.String())
}
