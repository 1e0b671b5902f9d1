package tcptransport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/msg"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// replyKey names one reply a peer expects: its type and, for a Pong,
// the sequence number of the Ping it answers.
type replyKey struct {
	typ msg.Type
	seq uint64
}

// replyPeer is a fictitious peer: a bare listener that decodes what the
// node sends it and counts the replies, by key, and anything addressed
// to someone else.
type replyPeer struct {
	ref table.Ref
	ln  net.Listener
	wg  sync.WaitGroup

	mu           sync.Mutex
	got          map[replyKey]int
	misaddressed int
}

func newReplyPeer(t *testing.T, x id.ID) *replyPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &replyPeer{ref: table.Ref{ID: x, Addr: ln.Addr().String()}, ln: ln, got: make(map[replyKey]int)}
	var conns sync.Map
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Store(conn, nil)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer conn.Close()
				for {
					payload, _, err := readFrame(conn, maxFrameBytes, 0)
					if err != nil {
						return
					}
					_ = wire.DecodePayload(p163, payload, p.record)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		conns.Range(func(c, _ any) bool { c.(net.Conn).Close(); return true })
		p.wg.Wait()
	})
	return p
}

func (p *replyPeer) record(env msg.Envelope) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if env.To.ID != p.ref.ID {
		p.misaddressed++
	}
	switch m := env.Msg.(type) {
	case msg.Pong:
		p.got[replyKey{msg.TPong, m.Seq}]++
	case msg.SamplePullRly, msg.SyncRly, msg.CpRly:
		p.got[replyKey{m.Type(), 0}]++
	}
	return nil
}

func (p *replyPeer) count(k replyKey) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got[k]
}

// TestRepliesReachAddresseeOnce holds the TCP runtime to the node's
// output contract: what Deliver and Tick return is the node's buffer,
// valid only until the next call, so each read loop and the tick loop
// copy it under the lock before sending. Eight peers, each on its own
// connection, send Ping, SamplePullReq and SyncReq while the tick loop
// gossips and syncs with them; every reply must reach its addressee
// exactly once. Under -race, a caller that sends the node's buffer after
// unlocking is a data race with the next call.
func TestRepliesReachAddresseeOnce(t *testing.T) {
	const peers, rounds = 8, 50
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "abc"), "127.0.0.1:0",
		WithLiveness(liveness.Config{ProbeInterval: 5 * time.Millisecond}),
		WithSampling(sampling.Config{Interval: 10 * time.Millisecond, Seed: 1}),
		WithAntiEntropy(antientropy.Config{Interval: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ps := make([]*replyPeer, peers)
	for i := range ps {
		ps[i] = newReplyPeer(t, id.MustParse(p163, fmt.Sprintf("%x%x%x", i+1, i+1, i+1)))
		// A reverse neighbour is a probe target, so the tick loop sends
		// to every peer while the peers' requests arrive.
		n.mu.Lock()
		n.node.Machine().AddReverseNeighbor(ps[i].ref)
		n.mu.Unlock()
	}

	digest := table.NewBitVector(p163.D * p163.B)
	var senders sync.WaitGroup
	for i, p := range ps {
		frames := make([][]byte, rounds)
		for r := range frames {
			frames[r] = binaryFrame(t,
				msg.Envelope{From: p.ref, To: n.Ref(), Msg: &msg.Ping{Seq: uint64(i*rounds + r + 1)}},
				msg.Envelope{From: p.ref, To: n.Ref(), Msg: msg.SamplePullReq{}},
				msg.Envelope{From: p.ref, To: n.Ref(), Msg: msg.SyncReq{Fill: digest}})
		}
		conn := dialNode(t, n)
		senders.Add(1)
		go func() {
			defer senders.Done()
			for _, frame := range frames {
				if _, err := conn.Write(frame); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	senders.Wait()

	for i, p := range ps {
		for _, k := range []replyKey{{msg.TSamplePullRly, 0}, {msg.TSyncRly, 0}} {
			awaitInt64(t, fmt.Sprintf("peer %d's %v replies", i, k.typ), func() int64 { return int64(p.count(k)) }, rounds)
		}
		for r := range rounds {
			k := replyKey{msg.TPong, uint64(i*rounds + r + 1)}
			awaitInt64(t, fmt.Sprintf("peer %d's pong %d", i, k.seq), func() int64 { return int64(p.count(k)) }, 1)
		}
	}
	time.Sleep(100 * time.Millisecond) // room for a duplicate to arrive
	for i, p := range ps {
		p.mu.Lock()
		for k, c := range p.got {
			want := 1
			if k.typ != msg.TPong {
				want = rounds
			}
			if c != want {
				t.Errorf("peer %d received %d %v (seq %d), want %d", i, c, k.typ, k.seq, want)
			}
		}
		if len(p.got) != rounds+2 {
			t.Errorf("peer %d received %d distinct replies, want %d", i, len(p.got), rounds+2)
		}
		if p.misaddressed > 0 {
			t.Errorf("peer %d received %d envelopes addressed to someone else", i, p.misaddressed)
		}
		p.mu.Unlock()
	}
}
