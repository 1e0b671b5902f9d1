package tcptransport

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/obs"
)

// cutDialer dials real TCP connections and, once cut is set, fails
// every dial to addr and every write on a connection to it: the node
// loses its path to that peer while the peer still reaches it.
type cutDialer struct {
	addr string
	cut  atomic.Bool
}

var errPathCut = errors.New("path cut")

func (d *cutDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if addr != d.addr {
		return net.DialTimeout("tcp", addr, timeout)
	}
	if d.cut.Load() {
		return nil, errPathCut
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return cutConn{Conn: c, cut: &d.cut}, nil
}

type cutConn struct {
	net.Conn
	cut *atomic.Bool
}

func (c cutConn) Write(b []byte) (int, error) {
	if c.cut.Load() {
		return 0, errPathCut
	}
	return c.Conn.Write(b)
}

// TestProbeRTTMetricReadsTheAck: the hub's probe-RTT histogram counts
// exactly the probe_ack events that carry a round trip, and those are
// the acks of direct probes. Node o loses its path to t, so its direct
// probes of t go unanswered and its confirmation rounds relay through h,
// whose relayed pings t answers straight back to o.
func TestProbeRTTMetricReadsTheAck(t *testing.T) {
	lc := liveness.Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		SuspectAfter:  2,
		ConfirmRounds: 3,
	}
	start := func(seed bool, x string, cfg Config) *Node {
		t.Helper()
		cfg.Liveness = &lc
		var n *Node
		var err error
		if seed {
			n, err = StartSeed(p163, core.Options{}, id.MustParse(p163, x), "127.0.0.1:0", WithConfig(cfg))
		} else {
			n, err = StartJoiner(p163, core.Options{}, id.MustParse(p163, x), "127.0.0.1:0", WithConfig(cfg))
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	join := func(n, via *Node) {
		t.Helper()
		if err := n.Join(via.Ref()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := n.AwaitStatus(ctx, core.StatusInSystem); err != nil {
			t.Fatal(err)
		}
	}
	tn := start(true, "abc", Config{})
	cut := &cutDialer{addr: tn.Ref().Addr}
	o := start(false, "123", Config{TraceRing: 1 << 14, dial: cut.dial})
	join(o, tn)
	join(start(false, "2b3", Config{}), tn)
	cut.cut.Store(true)

	// Keep o's trace: every probe by Seq, every ack after its probe.
	sent := make(map[uint64]obs.Event)
	var direct, relayed, timed int
	read := func() {
		events, _ := o.DrainTrace()
		for _, e := range events {
			switch e.Kind {
			case obs.KindProbe:
				sent[e.Seq] = e
			case obs.KindProbeAck:
				pr, ok := sent[e.Seq]
				if !ok {
					t.Fatalf("probe_ack %+v answers no probe in the trace", e)
				}
				if pr.Detail == "indirect" {
					relayed++
					if e.RTT != 0 {
						t.Fatalf("relayed probe's ack %+v carries RTT %v, want none", e, e.RTT)
					}
				} else {
					direct++
					if e.RTT <= 0 {
						t.Fatalf("direct probe's ack %+v carries RTT %v, want its round trip", e, e.RTT)
					}
				}
				if e.RTT > 0 {
					timed++
				}
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); direct < 10 || relayed == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d direct and %d relayed acks, want 10 and 1", direct, relayed)
		}
		read()
	}
	o.Close()
	read()
	if d := o.ring.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	if got := o.tobs.probeRTT.Count(); got != uint64(timed) {
		t.Fatalf("hypercube_probe_rtt_seconds counted %d probes, the trace %d acks with an RTT", got, timed)
	}
}
