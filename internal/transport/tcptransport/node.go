// Package tcptransport is the deployment runtime: it drives one composed
// node (internal/node — the same value the simulator drives) from real
// TCP sockets. Inbound, a listener's read loops decode length-prefixed
// frames of internal/wire payloads, rate-limit and budget them per
// connection, and deliver each envelope to the node under the node's
// one lock. Outbound, a reliable-delivery layer (delivery.go) keeps a
// bounded queue per peer, drained by a writer goroutine that runs only
// while the queue holds envelopes, with retry, backoff, redial, frame
// coalescing and dead-letter accounting. One ticker
// goroutine supplies the passage of time. Around that sit the per-node
// metrics registry and trace ring (obs.go) and the HTTP admin surface
// cmd/hypercubed serves (admin.go).
package tcptransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/node"
	"hypercube/internal/obs"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// Node hosts one protocol machine behind a TCP listener. Outbound
// messages go through the reliable-delivery layer (see delivery.go):
// per-peer bounded queues, each drained while non-empty by a writer
// goroutine with retry, exponential backoff, and automatic redial.
type Node struct {
	params id.Params
	cfg    Config

	// mu is the node's one protocol lock: it guards node — the machine
	// and every part composed onto it (see internal/node). What a call
	// under mu returns is the node's own buffer, valid only until the
	// next call, which another goroutine may make the moment mu is
	// released; so each caller copies it into a buffer of its own
	// goroutine before unlocking, and hands that to the delivery layer
	// after, so mu is never held across a send.
	mu    sync.Mutex
	node  *node.Node
	start time.Time

	// Observability (see obs.go): the always-on per-node hub and
	// registry, the clocked sink protocol components emit through, and
	// the optional in-memory trace ring (Config.TraceRing).
	tobs     *nodeObs
	sink     obs.Sink
	ring     *obs.Ring
	selfName string

	ln net.Listener

	peersMu  sync.Mutex
	peers    map[string]*peerQueue
	accepted map[net.Conn]struct{}

	statusPolls atomic.Int64 // diagnostic: Status() call count
	writers     atomic.Int64 // writer goroutines running (Stats.Writers)

	// Inbound hardening counters (see readLoop): malformed frames,
	// frames over the size limit, envelopes stalled by the inbound rate
	// limiter, and connections dropped for exhausting the decode-error
	// budget or declaring an oversized frame.
	decodeErrors     atomic.Int64
	oversizedFrames  atomic.Int64
	throttledInbound atomic.Int64
	guardDisconnects atomic.Int64

	wg     sync.WaitGroup
	done   chan struct{}
	closed bool
}

// StartSeed launches the first node of a network (§6.1) listening on
// listenAddr ("127.0.0.1:0" picks a free port).
func StartSeed(p id.Params, opts core.Options, nodeID id.ID, listenAddr string, options ...Option) (*Node, error) {
	return start(p, opts, core.NewSeed, nodeID, listenAddr, options)
}

// StartJoiner launches a node that is not yet part of any network; call
// Join to integrate it.
func StartJoiner(p id.Params, opts core.Options, nodeID id.ID, listenAddr string, options ...Option) (*Node, error) {
	return start(p, opts, core.NewJoiner, nodeID, listenAddr, options)
}

func start(p id.Params, opts core.Options, mk func(id.Params, table.Ref, core.Options) *core.Machine, nodeID id.ID, listenAddr string, options []Option) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tcptransport: %w", err)
	}
	var cfg Config
	for _, o := range options {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen: %w", err)
	}
	n := &Node{
		params:   p,
		cfg:      cfg.withDefaults(),
		ln:       ln,
		peers:    make(map[string]*peerQueue),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
		start:    time.Now(),
	}
	machine := mk(p, table.Ref{ID: nodeID, Addr: ln.Addr().String()}, opts)
	n.setupObs(machine.Self().ID)
	parts := n.cfg.Config
	parts.Sink = n.sink
	n.node = node.New(machine, parts)
	if every := parts.TickEvery(opts.Timeouts); every > 0 {
		n.wg.Add(1)
		go n.tickLoop(every)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Ref returns the node's identity: its ID plus actual listen address.
func (n *Node) Ref() table.Ref { return n.node.Machine().Self() }

// Status returns the node's protocol status.
func (n *Node) Status() core.Status {
	n.statusPolls.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.node.Machine().Status()
}

// Snapshot returns an immutable copy of the node's table.
func (n *Node) Snapshot() table.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.node.Machine().Snapshot()
}

// Counters returns a copy of the node's message counters, including the
// delivery layer's retried/dropped tallies.
func (n *Node) Counters() msg.Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return *n.node.Machine().Counters()
}

// GuardStats returns the machine's hostile-input counters (rejections,
// quarantines, budget deferrals).
func (n *Node) GuardStats() core.GuardStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.node.Machine().GuardStats()
}

// Join starts the join protocol through the given bootstrap node. The
// returned error covers enqueueing only; delivery failures are retried
// asynchronously and surface through Counters and AwaitStatus.
func (n *Node) Join(bootstrap table.Ref) error {
	n.mu.Lock()
	n.node.Advance(n.Uptime())
	out, err := n.node.Machine().StartJoin(bootstrap)
	out = slices.Clone(out)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return n.sendAll(out)
}

// Leave starts a graceful departure (§7 extension); await StatusLeft
// before shutting the node down so holders can repair their tables.
func (n *Node) Leave() error {
	n.mu.Lock()
	n.node.Advance(n.Uptime())
	out, err := n.node.Machine().StartLeave()
	out = slices.Clone(out)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return n.sendAll(out)
}

// AwaitStatus polls until the node reaches the wanted status or the
// context expires. The poll interval is Config.PollInterval.
func (n *Node) AwaitStatus(ctx context.Context, want core.Status) error {
	tick := time.NewTicker(n.cfg.PollInterval)
	defer tick.Stop()
	for {
		got := n.Status()
		if got == want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("tcptransport: node %v stuck in %v: %w", n.Ref().ID, got, ctx.Err())
		case <-tick.C:
		}
	}
}

// tickLoop is the node's one timer goroutine. Every period (the
// smallest any configured part runs at; each part gates itself on its
// own interval) it advances the composed node under the protocol lock
// and hands the resulting traffic to the delivery layer outside it.
func (n *Node) tickLoop(every time.Duration) {
	defer n.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	syncRounds := n.tobs.events.With(string(obs.KindSyncRound))
	var out []msg.Envelope // this goroutine's copy of each Tick's result
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
		}
		before := syncRounds.Value()
		n.mu.Lock()
		began := time.Now()
		out = append(out[:0], n.node.Tick(n.Uptime())...)
		held := time.Since(began)
		n.mu.Unlock()
		if syncRounds.Value() != before {
			// The tick ran an anti-entropy round: its lock-hold time is
			// the audit cost operators watch.
			n.tobs.syncDur.Observe(held.Seconds())
		}
		_ = n.sendAll(out)
		clear(out) // hold no message past its send
	}
}

// acceptBackoffMin and acceptBackoffMax bound the pause after a failed
// Accept, as in net/http.Server: 5ms doubling to 1s, reset by the next
// accepted connection.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	var delay time.Duration
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Any other error (EMFILE when the process is out of file
			// descriptors) would recur at once: retrying without a pause
			// burns a core until descriptors free up.
			delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
			if !n.sleep(delay) {
				return
			}
			continue
		}
		delay = 0
		n.peersMu.Lock()
		if n.closed {
			n.peersMu.Unlock()
			conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.peersMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// The inbound hardening bounds (see readLoop). Every deployment runs
// these values.
const (
	// maxFrameBytes bounds the payload of one inbound wire frame; a peer
	// declaring a bigger frame is disconnected before the payload is
	// read. The coalescer builds no bigger frame.
	maxFrameBytes = 1 << 20
	// readIdleTimeout bounds how long an inbound connection may sit
	// without completing a frame before it is closed (the remote writer
	// redials on demand).
	readIdleTimeout = 2 * time.Minute
	// decodeErrorBudget is how many malformed frames one inbound
	// connection may deliver before it is disconnected.
	decodeErrorBudget = 8
	// inboundRate caps envelopes accepted per second on one inbound
	// connection (token bucket; excess reads stall, letting TCP
	// backpressure the sender); inboundBurst is the bucket's depth.
	inboundRate  = 2000
	inboundBurst = 4000
)

// frameBuffer is what a read loop handles one frame with: the frame's
// decoded envelopes and the copy of each reply (handleEnvelope). The
// buffers are recycled through frameBuffers, so a connection that
// carries only a few frames, as most do, allocates none.
type frameBuffer struct{ envs, out []msg.Envelope }

var frameBuffers = sync.Pool{New: func() any { return new(frameBuffer) }}

// release empties fb, holding no message past its delivery, and
// returns it to the pool.
func (fb *frameBuffer) release() {
	clear(fb.envs)
	fb.envs = fb.envs[:0]
	frameBuffers.Put(fb)
}

// errNotWirePayload is the decode error of a frame whose header lacks
// flagBinary: whatever its payload is, it is not an internal/wire one.
var errNotWirePayload = errors.New("tcptransport: frame is not a wire payload")

func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.peersMu.Lock()
		delete(n.accepted, conn)
		n.peersMu.Unlock()
	}()
	budget := decodeErrorBudget
	// Per-connection token bucket: a peer pushing envelopes faster than
	// inboundRate stalls here, which backpressures it through TCP instead
	// of letting it monopolize the machine lock. Tokens are charged per
	// envelope, not per frame, so a coalesced frame cannot smuggle
	// wire.MaxBatch envelopes past the limiter for one token.
	tokens := float64(inboundBurst)
	last := time.Now()
	takeToken := func() bool {
		now := time.Now()
		tokens = min(tokens+now.Sub(last).Seconds()*inboundRate, inboundBurst)
		last = now
		if tokens < 1 {
			n.throttledInbound.Add(1)
			wait := time.Duration((1 - tokens) / inboundRate * float64(time.Second))
			if !n.sleep(wait) {
				return false
			}
			tokens = 1
			last = time.Now()
		}
		tokens--
		return true
	}
	for {
		payload, isBinary, err := readFrame(conn, maxFrameBytes, readIdleTimeout)
		if err != nil {
			if errors.Is(err, errFrameTooBig) {
				n.oversizedFrames.Add(1)
				n.guardDisconnects.Add(1)
				n.emitTransport(obs.KindGuardDrop, "oversized frame")
			}
			return // closed, idle-timed-out, or oversized; peer redials
		}
		// One frame may carry several envelopes; each passes the token
		// bucket and handler individually. A malformed record rejects the
		// rest of the frame (records after it have no trustworthy
		// boundary) but envelopes decoded before it are still handled.
		// The whole frame is decoded before any of it is delivered, so
		// the decoder's frames are not on the stack under every
		// delivery: with them there, the deepest delivery sat a few
		// bytes short of doubling each read loop's stack.
		err = errNotWirePayload
		fb := frameBuffers.Get().(*frameBuffer)
		if isBinary {
			err = wire.DecodePayload(n.params, payload, func(env msg.Envelope) error {
				fb.envs = append(fb.envs, env)
				return nil
			})
		}
		for _, env := range fb.envs {
			if !takeToken() {
				return // the node is closing
			}
			fb.out = n.handleEnvelope(env, fb.out)
		}
		fb.release()
		if err != nil {
			// Frame boundaries survive a malformed payload, so charge the
			// budget and keep reading instead of tearing down on the
			// first bad frame.
			n.decodeErrors.Add(1)
			n.emitTransport(obs.KindGuardReject, "decode error")
			if budget--; budget <= 0 {
				n.guardDisconnects.Add(1)
				n.emitTransport(obs.KindGuardDrop, "decode-error budget exhausted")
				return
			}
		}
	}
}

// handleEnvelope delivers one decoded inbound envelope to the composed
// node under the protocol lock and sends the reply, copied under the
// lock into buf, a buffer of the calling read loop, which it returns
// for reuse. Outbound trouble belongs to the delivery layer (retries,
// then dead-letter counters); an unrelated peer's failure must not tear
// down this inbound connection.
func (n *Node) handleEnvelope(env msg.Envelope, buf []msg.Envelope) []msg.Envelope {
	n.mu.Lock()
	buf = append(buf[:0], n.node.Deliver(env, n.Uptime())...)
	n.mu.Unlock()
	_ = n.sendAll(buf)
	clear(buf) // hold no message past its send
	return buf
}

// sendAll hands every envelope to the delivery layer. Unlike a
// fail-fast loop, one undeliverable destination cannot starve
// envelopes addressed to other peers; all enqueue errors are joined.
func (n *Node) sendAll(envs []msg.Envelope) error {
	var errs []error
	for _, env := range envs {
		if err := n.enqueue(env); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close shuts the node down: listener, peer connections, goroutines.
// Envelopes still queued for delivery are dead-lettered.
func (n *Node) Close() error {
	n.peersMu.Lock()
	if n.closed {
		n.peersMu.Unlock()
		return nil
	}
	n.closed = true
	queues := make([]*peerQueue, 0, len(n.peers))
	for _, pq := range n.peers {
		queues = append(queues, pq)
	}
	conns := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		conns = append(conns, c)
	}
	n.peersMu.Unlock()

	close(n.done)
	err := n.ln.Close()
	for _, pq := range queues {
		for _, env := range pq.close() {
			n.countDropped(env.Msg.Type())
		}
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return err
}
