package tcptransport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// dialNode opens a raw TCP connection to a node's listener, bypassing
// the delivery layer, so tests can speak the frame protocol by hand.
func dialNode(t *testing.T, n *Node) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.Ref().Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// binaryFrame frames envs the way deliverBatch does: header reservation,
// one wire payload, header stamp.
func binaryFrame(t *testing.T, envs ...msg.Envelope) []byte {
	t.Helper()
	payload, err := wire.EncodePayload(p163, envs...)
	if err != nil {
		t.Fatal(err)
	}
	return framePayload(t, payload)
}

// framePayload puts the production frame header in front of payload.
func framePayload(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame := append(make([]byte, frameHeaderLen), payload...)
	if err := finishBinaryFrame(frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

// cpRstFrom is a well-formed CpRst addressed to the node from a
// fictitious peer.
func cpRstFrom(n *Node, from string) msg.Envelope {
	return msg.Envelope{
		From: table.Ref{ID: id.MustParse(p163, from), Addr: "127.0.0.1:1"},
		To:   n.Ref(),
		Msg:  msg.CpRst{Level: 0},
	}
}

// junkFrame is a correctly length-prefixed, correctly flagged frame
// whose payload wire.DecodePayload rejects.
func junkFrame(t *testing.T, size int) []byte {
	return framePayload(t, bytes.Repeat([]byte{0xff}, size))
}

// receivedCpRst reads the node's count of delivered CpRst messages.
func receivedCpRst(n *Node) int64 {
	c := n.Counters()
	return int64(c.ReceivedOf(msg.TCpRst))
}

// awaitClosed asserts the remote end tears the connection down.
func awaitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open, want remote close")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection not closed within deadline")
	}
}

// A frame declaring more bytes than maxFrameBytes must cost the peer its
// connection before the payload is read, and be visible in the counters.
func TestOversizedFrameDisconnects(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a10"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn := dialNode(t, n)
	header := make([]byte, frameHeaderLen)
	binary.BigEndian.PutUint32(header, uint32(maxFrameBytes+1)|flagBinary)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, conn)
	awaitInt64(t, "oversized frames", func() int64 { return n.Stats().Inbound.OversizedFrames }, 1)
	awaitInt64(t, "guard disconnects", func() int64 { return n.Stats().Inbound.Disconnects }, 1)
}

// A frame's declared length is not an allocation: 32 peers that each
// declare a maxFrameBytes frame and then stall after 16 bytes must not
// make the node reserve 32 MiB (it used to, until readIdleTimeout).
func TestStalledFramePinsWhatArrived(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a12"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const conns = 32
	for i := 0; i < conns; i++ {
		conn := dialNode(t, n)
		frame := make([]byte, frameHeaderLen+16)
		binary.BigEndian.PutUint32(frame, uint32(maxFrameBytes)|flagBinary)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	awaitInt64(t, "accepted connections", func() int64 {
		n.peersMu.Lock()
		defer n.peersMu.Unlock()
		return int64(len(n.accepted))
	}, conns)
	// Give every read loop time to reach the payload.
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		if grown := int64(heap()) - int64(before); grown >= 4<<20 {
			t.Fatalf("heap grew %d KiB for %d stalled frames of 16 bytes", grown>>10, conns)
		}
	}
}

// A frame bigger than the first read step still arrives whole, and one
// cut short is an error, not a short payload.
func TestReadFrameGrowsToDeclaredSize(t *testing.T) {
	payload := make([]byte, 3*frameReadStep+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, cut := range []int{0, 1000} {
		client, server := net.Pipe()
		frame := framePayload(t, payload)
		go func() {
			client.Write(frame[:len(frame)-cut])
			client.Close()
		}()
		got, isBinary, err := readFrame(server, maxFrameBytes, 0)
		server.Close()
		switch {
		case cut > 0 && err == nil:
			t.Errorf("frame cut %d bytes short read without error", cut)
		case cut == 0 && (err != nil || !isBinary || !bytes.Equal(got, payload)):
			t.Errorf("frame of %d bytes: err %v, binary %v, payload intact %v", len(payload), err, isBinary, bytes.Equal(got, payload))
		}
	}
}

// Frame boundaries isolate malformed payloads: a connection survives
// bad frames up to the decode-error budget — and still delivers valid
// frames in between — then is torn down when the budget is exhausted.
func TestDecodeErrorBudgetDisconnects(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a11"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn := dialNode(t, n)
	// One junk frame short of the budget: the connection must survive.
	for i := 0; i < decodeErrorBudget-1; i++ {
		if _, err := conn.Write(junkFrame(t, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// A valid frame after garbage still delivers — proof the stream
	// resynchronizes at frame boundaries.
	if _, err := conn.Write(binaryFrame(t, cpRstFrom(n, "b20"))); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "CpRst received", func() int64 { return receivedCpRst(n) }, 1)
	if got := n.Stats().Inbound.Disconnects; got != 0 {
		t.Fatalf("disconnects = %d before budget exhausted, want 0", got)
	}
	// The next junk frame exhausts the budget.
	if _, err := conn.Write(junkFrame(t, 16)); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, conn)
	awaitInt64(t, "decode errors", func() int64 { return n.Stats().Inbound.DecodeErrors }, decodeErrorBudget)
	awaitInt64(t, "guard disconnects", func() int64 { return n.Stats().Inbound.Disconnects }, 1)
}

// A peer pushing envelopes faster than the inbound rate limit is
// stalled (backpressured through TCP), and the stalls are counted. The
// envelopes are SamplePushes, which a node without a sampler counts and
// drops, so the node takes them far faster than the limiter refills:
// a quarter of a bucket more than inboundBurst empties it unless the
// node handles fewer than 5·inboundRate envelopes a second. Tokens are
// charged per envelope, so envelopes coalesced wire.MaxBatch to a frame
// are throttled exactly like a frame each.
func TestInboundRateLimitThrottles(t *testing.T) {
	const burst = inboundBurst + inboundBurst/4
	for name, perFrame := range map[string]int{"frame per envelope": 1, "coalesced frames": wire.MaxBatch} {
		t.Run(name, func(t *testing.T) {
			n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a12"), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()

			push := cpRstFrom(n, "b21")
			push.Msg = msg.SamplePush{}
			envs := make([]msg.Envelope, perFrame)
			for i := range envs {
				envs[i] = push
			}
			var stream []byte
			for sent := 0; sent < burst; sent += perFrame {
				stream = append(stream, binaryFrame(t, envs[:min(perFrame, burst-sent)]...)...)
			}
			if _, err := dialNode(t, n).Write(stream); err != nil {
				t.Fatal(err)
			}
			awaitInt64(t, "throttled inbound", func() int64 { return n.Stats().Inbound.Throttled }, 1)
			awaitInt64(t, "SamplePush received", func() int64 {
				c := n.Counters()
				return int64(c.ReceivedOf(msg.TSamplePush))
			}, burst)
		})
	}
}

// A malformed record rejects the rest of its frame, but the records
// before it were already handled and the frame costs one decode error.
func TestMalformedRecordKeepsEarlierEnvelopes(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a14"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	env := cpRstFrom(n, "b22")
	payload, err := wire.EncodePayload(p163, env, env)
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, 3, 0xfa, 0, 0) // third record: 3-byte body of unknown kind 250
	wire.SetCount(payload, 3)
	conn := dialNode(t, n)
	if _, err := conn.Write(framePayload(t, payload)); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "decode errors", func() int64 { return n.Stats().Inbound.DecodeErrors }, 1)
	if got := receivedCpRst(n); got != 2 {
		t.Fatalf("%d CpRst delivered from the records before the corrupt one, want 2", got)
	}
	// The connection reads on: one more valid frame, no further charge.
	if _, err := conn.Write(binaryFrame(t, env)); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "CpRst received", func() int64 { return receivedCpRst(n) }, 3)
	if got := n.Stats().Inbound.DecodeErrors; got != 1 {
		t.Fatalf("decode errors = %d, want exactly 1", got)
	}
}

// A frame whose header lacks the top bit is not a wire payload, whatever
// it carries: it is consumed to its boundary, charged to the decode-error
// budget, and never delivered.
func TestTopBitClearFrameIsDecodeError(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a15"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Even a payload that would decode must not be handled.
	valid := binaryFrame(t, cpRstFrom(n, "b23"))
	clear := append([]byte(nil), valid...)
	clear[0] &^= 0x80

	conn := dialNode(t, n)
	if _, err := conn.Write(clear); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "decode errors", func() int64 { return n.Stats().Inbound.DecodeErrors }, 1)
	if got := receivedCpRst(n); got != 0 {
		t.Fatalf("top-bit-clear frame delivered %d CpRst, want 0", got)
	}
	// Within budget the connection survives and resynchronizes at the
	// frame boundary.
	if _, err := conn.Write(valid); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "CpRst received", func() int64 { return receivedCpRst(n) }, 1)
	if got := n.Stats().Inbound.Disconnects; got != 0 {
		t.Fatalf("disconnects = %d before budget exhausted, want 0", got)
	}
	// The rest of the budget in top-bit-clear frames disconnects.
	for i := 1; i < decodeErrorBudget; i++ {
		if _, err := conn.Write(clear); err != nil {
			t.Fatal(err)
		}
	}
	awaitClosed(t, conn)
	awaitInt64(t, "decode errors", func() int64 { return n.Stats().Inbound.DecodeErrors }, decodeErrorBudget)
	awaitInt64(t, "guard disconnects", func() int64 { return n.Stats().Inbound.Disconnects }, 1)
	if got := receivedCpRst(n); got != 1 {
		t.Fatalf("CpRst received = %d, want 1", got)
	}
}

// The frame header is part of the deployed format: a length with the top
// bit set, then the wire payload. The literal was captured from the
// release that still had a second codec, so nodes of that release on its
// default settings interoperate byte for byte; a node's own socket
// output must match the same construction.
func TestFrameHeaderGolden(t *testing.T) {
	const golden = "80000028010125010100020b0b3132372e302e302e313a310101010a0e3132372e302e302e313a3730303102"
	env := msg.Envelope{
		From: table.Ref{ID: id.MustParse(p163, "b20"), Addr: "127.0.0.1:1"},
		To:   table.Ref{ID: id.MustParse(p163, "a11"), Addr: "127.0.0.1:7001"},
		Msg:  msg.CpRst{Level: 2},
	}
	if got := hex.EncodeToString(binaryFrame(t, env)); got != golden {
		t.Fatalf("framed CpRst changed\n got %s\nwant %s", got, golden)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a16"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	env.To.Addr = ln.Addr().String()
	if err := n.sendAll([]msg.Envelope{env}); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := binaryFrame(t, env)
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("node wrote a different frame\n got %x\nwant %x", got, want)
	}
}

// The hostile-input counters are served on /status and /metrics.
func TestAdminExposesGuardCounters(t *testing.T) {
	n, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a13"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn := dialNode(t, n)
	if _, err := conn.Write(junkFrame(t, 16)); err != nil {
		t.Fatal(err)
	}
	awaitInt64(t, "decode errors", func() int64 { return n.Stats().Inbound.DecodeErrors }, 1)

	srv := httptest.NewServer(n.AdminHandler())
	defer srv.Close()

	if got := adminStatus(t, n).Inbound.DecodeErrors; got != 1 {
		t.Fatalf("/status inbound.decodeErrors = %d, want 1", got)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"hypercube_guard_rejected_total",
		"hypercube_guard_scorer_quarantined",
		"hypercube_inbound_decode_errors_total 1",
		"hypercube_inbound_throttled_total",
		"hypercube_inbound_disconnects_total",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}
