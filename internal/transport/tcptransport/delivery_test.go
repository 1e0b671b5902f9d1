package tcptransport

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/netcheck"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// envelopeSink is a bare TCP listener that decodes wire envelopes and
// tracks how many connections are currently open, for asserting on the
// node's connection management from the receiving side.
type envelopeSink struct {
	ln       net.Listener
	received atomic.Int64
	live     atomic.Int64
	wg       sync.WaitGroup
}

func newEnvelopeSink(t *testing.T) *envelopeSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &envelopeSink{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.live.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.live.Add(-1)
				defer conn.Close()
				for {
					payload, _, err := readFrame(conn, maxFrameBytes, 0)
					if err != nil {
						return
					}
					cnt, err := countFrameEnvelopes(payload)
					if err != nil {
						return
					}
					s.received.Add(int64(cnt))
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *envelopeSink) addr() string { return s.ln.Addr().String() }

// countFrameEnvelopes counts the protocol envelopes one frame payload
// carries.
func countFrameEnvelopes(payload []byte) (int, error) {
	cnt := 0
	err := wire.DecodePayload(p163, payload, func(msg.Envelope) error {
		cnt++
		return nil
	})
	return cnt, err
}

func awaitInt64(t *testing.T, what string, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if get() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d (at %d)", what, want, get())
}

// Regression for the fail-fast sendAll bug: an undeliverable first
// envelope must not starve envelopes addressed to other, reachable
// peers. (The seed transport aborted the loop on the first error.)
func TestSendAllDeliversPastFailures(t *testing.T) {
	sink := newEnvelopeSink(t)
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a00"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	dead := table.Ref{ID: id.MustParse(p163, "b11"), Addr: "127.0.0.1:1"} // nothing listens there
	live := table.Ref{ID: id.MustParse(p163, "c22"), Addr: sink.addr()}
	envs := []msg.Envelope{
		{From: n.Ref(), To: dead, Msg: msg.JoinWait{}},
		{From: n.Ref(), To: live, Msg: msg.JoinWait{}},
	}
	if err := n.sendAll(envs); err != nil {
		t.Fatalf("sendAll enqueue failed: %v", err)
	}
	awaitInt64(t, "sink received", sink.received.Load, 1)
	// The dead destination is eventually dead-lettered, not silently lost.
	awaitInt64(t, "dead-letter count", func() int64 {
		c := n.Counters()
		return int64(c.DroppedOf(msg.TJoinWait))
	}, 1)
}

// Regression for the connection-leak bug: when the transport redials a
// peer, the displaced connection must be closed — the peer should never
// accumulate more than one live connection from one node. (The seed
// transport's fresh redial overwrote the cached connection without
// closing it when two failed sends raced.)
func TestRedialClosesDisplacedConnection(t *testing.T) {
	sink := newEnvelopeSink(t)
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a01"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	to := table.Ref{ID: id.MustParse(p163, "d33"), Addr: sink.addr()}
	send := func(k int) {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := n.sendAll([]msg.Envelope{{From: n.Ref(), To: to, Msg: msg.JoinWait{}}}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	send(2)
	awaitInt64(t, "sink received", sink.received.Load, 2)

	// Stale the connection from the sender side, then send concurrently
	// so the transport must redial under contention.
	if got := killConnections(n); got != 1 {
		t.Fatalf("killConnections = %d, want 1", got)
	}
	send(2)
	awaitInt64(t, "sink received after redial", sink.received.Load, 4)
	// Give any leaked socket time to surface, then count live conns.
	time.Sleep(50 * time.Millisecond)
	if got := sink.live.Load(); got != 1 {
		t.Fatalf("%d live connections to the peer after redial, want 1 (leak)", got)
	}
}

// Regression for the read-loop teardown bug: a failed *outbound* send
// must not kill the *inbound* connection it was triggered from. (The
// seed transport returned from readLoop when sendAll errored, so a dead
// reply address tore down a healthy peer link.)
func TestReadLoopSurvivesOutboundFailure(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a02"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	conn, err := net.Dial("tcp", seed.Ref().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// From-ref advertises an address nobody listens on, so the seed's
	// CpRly reply cannot be delivered.
	ghost := table.Ref{ID: id.MustParse(p163, "e44"), Addr: "127.0.0.1:1"}
	frame := binaryFrame(t, msg.Envelope{From: ghost, To: seed.Ref(), Msg: msg.CpRst{Level: 0}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "first CpRst received", func() int64 {
		c := seed.Counters()
		return int64(c.ReceivedOf(msg.TCpRst))
	}, 1)
	// Wait for the reply to be dead-lettered, proving the outbound path
	// failed before we assert the inbound connection survived it.
	awaitInt64(t, "reply dead-lettered", func() int64 {
		c := seed.Counters()
		return int64(c.TotalDropped())
	}, 1)

	// The same inbound connection must still be read from.
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("inbound connection torn down by unrelated send failure: %v", err)
	}
	awaitInt64(t, "second CpRst received", func() int64 {
		c := seed.Counters()
		return int64(c.ReceivedOf(msg.TCpRst))
	}, 2)
}

// Regression for the AwaitStatus busy-poll bug: waiting must poll the
// status roughly once per tick, not hundreds of times per second. (The
// seed transport ticked every 2ms and called Status twice per
// iteration.)
func TestAwaitStatusPollsGently(t *testing.T) {
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "a03"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 220*time.Millisecond)
	defer cancel()
	before := joiner.statusPolls.Load()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err == nil {
		t.Fatal("AwaitStatus on idle joiner returned nil")
	}
	polls := joiner.statusPolls.Load() - before
	// 220ms at the default 20ms interval is ~12 polls; the seed's 2ms
	// double-poll loop did >150.
	if polls > 30 {
		t.Fatalf("AwaitStatus made %d status polls in 220ms; busy-polling", polls)
	}
	if polls == 0 {
		t.Fatal("AwaitStatus made no status polls")
	}
}

// Queue overflow must dead-letter, not block or grow without bound: with
// the writer parked, queueLimit envelopes queue and the next one is
// refused.
func TestQueueOverflowDeadLetters(t *testing.T) {
	dialer := newParkingDialer()
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a04"), "127.0.0.1:0",
		WithConfig(Config{dial: dialer.dial}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer close(dialer.release)

	dead := table.Ref{ID: id.MustParse(p163, "b55"), Addr: "127.0.0.1:1"}
	send := func() error {
		return n.sendAll([]msg.Envelope{{From: n.Ref(), To: dead, Msg: msg.JoinWait{}}})
	}
	// The first envelope starts the writer, which parks holding it.
	if err := send(); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "parked dials", dialer.parked.Load, 1)
	for i := 0; i < queueLimit; i++ {
		if err := send(); err != nil {
			t.Fatalf("envelope %d of a %d-slot queue refused: %v", i+1, queueLimit, err)
		}
	}
	if err := send(); err == nil {
		t.Fatalf("envelope %d overflowed a %d-slot queue without error", queueLimit+1, queueLimit)
	}
	if c := n.Counters(); c.TotalDropped() != 1 {
		t.Fatalf("overflow dead-lettered %d envelopes, want 1", c.TotalDropped())
	}
}

// The tentpole acceptance test: a network built over a transport that
// drops 10% of write attempts — plus one forced connection kill mid-run
// — must still complete every join and settle into a globally
// consistent table set, with the retry layer (not luck) earning it.
func TestJoinUnderInjectedFaults(t *testing.T) {
	faults := newFaultyDialer(7)
	faults.setDropRate(0.10)
	faults.killEvery = 40 // sprinkle connection kills on top of drops
	opts := []Option{WithConfig(Config{dial: faults.dial})}

	rng := rand.New(rand.NewSource(11))
	seen := make(map[id.ID]bool)
	draw := func() id.ID {
		for {
			x := id.Random(p163, rng)
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	seed, err := StartSeed(p163, core.Options{}, draw(), "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	const joiners = 8
	nodes := []*Node{seed}
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		n, err := StartJoiner(p163, core.Options{}, draw(), "127.0.0.1:0", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Join(seed.Ref()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// One forced connection kill while joins are in flight.
	time.Sleep(20 * time.Millisecond)
	killed := killConnections(seed)
	t.Logf("killed %d live connections mid-join", killed)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, n := range nodes[1:] {
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			t.Fatal(err)
		}
	}
	awaitStableTables(t, nodes)

	tables := make(map[id.ID]*table.Table, len(nodes))
	var total msg.Counters
	for _, n := range nodes {
		tbl := table.New(p163, n.Ref().ID)
		n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
			tbl.Set(level, digit, nb)
		})
		tables[n.Ref().ID] = tbl
		c := n.Counters()
		total.Add(&c)
	}
	if v := netcheck.CheckConsistency(p163, tables); len(v) != 0 {
		t.Fatalf("network inconsistent under faults: %v (of %d)", v[0], len(v))
	}
	drops, kills := faults.counts()
	if drops == 0 {
		t.Fatal("fault injector never dropped a write; test proves nothing")
	}
	if total.TotalRetried() == 0 {
		t.Fatal("no retries recorded despite injected drops")
	}
	if total.TotalDropped() != 0 {
		t.Fatalf("%d messages dead-lettered; delivery layer gave up under 10%% loss", total.TotalDropped())
	}
	t.Logf("injected drops=%d kills=%d; transport retried=%d dead-lettered=%d",
		drops, kills, total.TotalRetried(), total.TotalDropped())
}

// A redial after a receiver restart must converge on a single healthy
// connection and deliver everything queued meanwhile.
func TestRedialAfterPeerRestart(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a05"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	to := table.Ref{ID: id.MustParse(p163, "f66"), Addr: addr}

	// First send lands on the live listener.
	var got atomic.Int64
	drain := func(ln net.Listener) {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					payload, _, err := readFrame(c, maxFrameBytes, 0)
					if err != nil {
						return
					}
					cnt, err := countFrameEnvelopes(payload)
					if err != nil {
						return
					}
					got.Add(int64(cnt))
				}
			}()
		}
	}
	go drain(ln)
	if err := n.sendAll([]msg.Envelope{{From: n.Ref(), To: to, Msg: msg.JoinWait{}}}); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "first delivery", got.Load, 1)

	// Kill the receiver; sends queue and retry against a dead port.
	ln.Close()
	killConnections(n)
	for i := 0; i < 3; i++ {
		if err := n.sendAll([]msg.Envelope{{From: n.Ref(), To: to, Msg: msg.JoinWait{}}}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)

	// Restart the receiver on the same port; retries must land.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()
	go drain(ln2)
	awaitInt64(t, "post-restart deliveries", got.Load, 4)
}
