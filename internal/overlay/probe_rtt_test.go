package overlay

import (
	"math/rand"
	"testing"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/node"
	"hypercube/internal/obs"
)

// eventLog collects every event a network emits, in emission order.
type eventLog []obs.Event

func (l *eventLog) Emit(e obs.Event) { *l = append(*l, e) }

// TestProbeAckCarriesRTT holds the round trip each probe_ack carries to
// the rule a trace reader would apply by pairing events: a direct
// probe's ack carries ack.T − probe.T for the probe of the same node and
// Seq, a late ack included, and a relayed probe's ack carries none. The
// shipped stack runs over one-way loss with retransmission, which
// relayed probes get round, and one node slows down, which late acks
// come from, so direct, late and relayed acks all occur.
func TestProbeAckCarriesRTT(t *testing.T) {
	opts, parts := node.Shipped()
	var log eventLog
	p := id.Params{B: 4, D: 4}
	net := New(Config{
		Params:      p,
		Opts:        opts,
		Latency:     HashedUniformLatency(5*time.Millisecond, 120*time.Millisecond, 1),
		Loss:        &Loss{Rate: 0.5, Seed: 3, OneWay: true},
		Liveness:    parts.Liveness,
		RTT:         parts.RTT,
		AntiEntropy: parts.AntiEntropy,
		Sink:        &log,
	})
	rng := rand.New(rand.NewSource(5))
	refs := RandomRefs(p, 16, rng, nil)
	net.BuildDirect(refs, rng)
	net.RunFor(5 * time.Second)
	net.MarkSlow(400*time.Millisecond, refs[3].ID)
	net.RunFor(20 * time.Second)

	type probeID struct {
		node string
		seq  uint64
	}
	sent := make(map[probeID]obs.Event)
	var direct, late, relayed int
	for _, e := range log {
		k := probeID{e.Node, e.Seq}
		switch e.Kind {
		case obs.KindProbe:
			sent[k] = e
		case obs.KindProbeAck:
			pr, ok := sent[k]
			if !ok {
				t.Fatalf("probe_ack %+v answers no probe", e)
			}
			switch {
			case pr.Detail == "indirect":
				relayed++
				if e.RTT != 0 {
					t.Fatalf("relayed probe's ack %+v carries RTT %v, want none", e, e.RTT)
				}
			case e.RTT != e.T-pr.T:
				t.Fatalf("ack %+v carries RTT %v, want %v after its probe at %v", e, e.RTT, e.T-pr.T, pr.T)
			case e.Detail == "late":
				late++
			default:
				direct++
			}
		}
	}
	t.Logf("%d direct, %d late and %d relayed acks", direct, late, relayed)
	if direct == 0 || late == 0 || relayed == 0 {
		t.Fatalf("%d direct, %d late and %d relayed acks: the run must have all three", direct, late, relayed)
	}
}
