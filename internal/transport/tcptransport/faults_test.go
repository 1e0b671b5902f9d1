package tcptransport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// faultyDialer models a lossy network below the reliable-delivery
// layer. Installed as Config.dial, it dials real TCP connections and
// wraps each in a faultyConn: a dropped write sends nothing and fails,
// so the delivery layer retries it with backoff as it would a real
// timeout; every write waits latency first; and every killEvery-th
// successful write closes its connection afterwards, forcing a redial.
// Drop decisions come from one seeded stream, and the drop rate may
// change while nodes use the dialer.
type faultyDialer struct {
	latency   time.Duration
	killEvery int // 0 = never

	mu       sync.Mutex
	rng      *rand.Rand
	dropRate float64
	writes   int
	drops    int
	kills    int
}

func newFaultyDialer(seed int64) *faultyDialer {
	return &faultyDialer{rng: rand.New(rand.NewSource(seed))}
}

func (d *faultyDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &faultyConn{Conn: c, d: d}, nil
}

func (d *faultyDialer) setDropRate(rate float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropRate = rate
}

// counts returns how many writes were dropped and how many connections
// killed so far.
func (d *faultyDialer) counts() (drops, kills int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drops, d.kills
}

// nextWrite decides the fate of one write.
func (d *faultyDialer) nextWrite() (drop, kill bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dropRate > 0 && d.rng.Float64() < d.dropRate {
		d.drops++
		return true, false
	}
	d.writes++
	if d.killEvery > 0 && d.writes%d.killEvery == 0 {
		d.kills++
		return false, true
	}
	return false, false
}

var errInjectedDrop = errors.New("tcptransport test: injected write drop")

type faultyConn struct {
	net.Conn
	d *faultyDialer
}

func (c *faultyConn) Write(b []byte) (int, error) {
	drop, kill := c.d.nextWrite()
	time.Sleep(c.d.latency)
	if drop {
		return 0, errInjectedDrop
	}
	n, err := c.Conn.Write(b)
	if err == nil && kill {
		c.Conn.Close()
	}
	return n, err
}

// parkingDialer parks every writer that dials: each dial blocks, with
// the writer's batch in hand, until release is closed, then fails.
type parkingDialer struct {
	parked  atomic.Int64 // dials begun
	release chan struct{}
}

func newParkingDialer() *parkingDialer {
	return &parkingDialer{release: make(chan struct{})}
}

var errParkedDial = errors.New("tcptransport test: parked dial released")

func (d *parkingDialer) dial(string, time.Duration) (net.Conn, error) {
	d.parked.Add(1)
	<-d.release
	return nil, errParkedDial
}

// killConnections force-closes every live outbound connection of n and
// returns how many it closed; writers redial on their next attempt and
// queued envelopes are unaffected.
func killConnections(n *Node) int {
	n.peersMu.Lock()
	queues := make([]*peerQueue, 0, len(n.peers))
	for _, pq := range n.peers {
		queues = append(queues, pq)
	}
	n.peersMu.Unlock()
	killed := 0
	for _, pq := range queues {
		if pq.killConn() {
			killed++
		}
	}
	return killed
}
