package tcptransport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// frameSink is a raw TCP listener that counts frames and the envelopes
// they carry, and records the largest payload seen — the receiving-side
// instrument for coalescing assertions.
type frameSink struct {
	ln        net.Listener
	frames    atomic.Int64
	envelopes atomic.Int64
	coalesced atomic.Int64 // frames carrying >1 envelope
	maxSeen   atomic.Int64 // largest payload in bytes
	wg        sync.WaitGroup
}

func newFrameSink(t *testing.T) *frameSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &frameSink{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
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
					s.frames.Add(1)
					s.envelopes.Add(int64(cnt))
					if cnt > 1 {
						s.coalesced.Add(1)
					}
					for {
						old := s.maxSeen.Load()
						if int64(len(payload)) <= old || s.maxSeen.CompareAndSwap(old, int64(len(payload))) {
							break
						}
					}
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

// A burst of envelopes to one peer, queued behind a slow first write,
// must coalesce into far fewer frames than envelopes — and all of them
// must arrive.
func TestCoalescingBatchesEnvelopes(t *testing.T) {
	sink := newFrameSink(t)
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a07"), "127.0.0.1:0",
		WithConfig(Config{dial: (&faultyDialer{latency: 40 * time.Millisecond}).dial}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	to := table.Ref{ID: id.MustParse(p163, "f07"), Addr: sink.ln.Addr().String()}
	const burst = 50
	envs := make([]msg.Envelope, burst)
	for i := range envs {
		envs[i] = msg.Envelope{From: n.Ref(), To: to, Msg: msg.JoinWait{}}
	}
	if err := n.sendAll(envs); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "coalesced envelopes", sink.envelopes.Load, burst)
	if f := sink.frames.Load(); f >= burst/2 {
		t.Errorf("burst of %d envelopes used %d frames; want real coalescing", burst, f)
	}
	if sink.coalesced.Load() == 0 {
		t.Error("no frame carried more than one envelope")
	}
}

// The coalescer must respect maxFrameBytes by construction: frames stop
// growing before the limit, never after it.
func TestCoalescerRespectsMaxFrameBytes(t *testing.T) {
	sink := newFrameSink(t)
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a08"), "127.0.0.1:0",
		WithConfig(Config{dial: (&faultyDialer{latency: 40 * time.Millisecond}).dial}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// A full table whose every address has the largest size the wire
	// accepts, so that a batch of wire.MaxBatch of them overflows a frame.
	tbl := table.New(p163, n.Ref().ID)
	for level := 0; level < p163.D; level++ {
		for digit := 0; digit < p163.B; digit++ {
			addr := fmt.Sprintf("%0*d", table.MaxAddr, level*p163.B+digit)
			tbl.Set(level, digit, table.Neighbor{ID: id.MustParse(p163, "111"), Addr: addr, State: table.StateS})
		}
	}
	snap := tbl.Snapshot()
	to := table.Ref{ID: id.MustParse(p163, "f08"), Addr: sink.ln.Addr().String()}
	one, err := wire.EncodePayload(p163, msg.Envelope{From: n.Ref(), To: to, Msg: msg.SyncPush{Table: snap}})
	if err != nil {
		t.Fatal(err)
	}
	if wire.MaxBatch*len(one) <= maxFrameBytes {
		t.Fatalf("%d envelopes of %d bytes fit one frame; the bound would never bind", wire.MaxBatch, len(one))
	}
	burst := 2 * wire.MaxBatch
	envs := make([]msg.Envelope, burst)
	for i := range envs {
		envs[i] = msg.Envelope{From: n.Ref(), To: to, Msg: msg.SyncPush{Table: snap}}
	}
	if err := n.sendAll(envs); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "bounded-frame envelopes", sink.envelopes.Load, int64(burst))
	if got := sink.maxSeen.Load(); got > maxFrameBytes {
		t.Errorf("frame payload of %d bytes exceeds maxFrameBytes %d", got, maxFrameBytes)
	}
	if sink.coalesced.Load() == 0 {
		t.Error("no frame carried more than one envelope (bound test proved nothing)")
	}
}
