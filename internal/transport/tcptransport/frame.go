package tcptransport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"time"
)

// Connections carry length-prefixed frames: a 4-byte big-endian header
// followed by one payload (internal/wire: up to wire.MaxBatch envelopes).
// Framing is what makes the inbound path defensible: the reader knows a
// frame's size before decoding it (so an oversized frame is rejected for
// the cost of 4 bytes), one undecodable payload no longer poisons the
// whole stream (the next frame starts at a known boundary, so malformed
// frames can be counted against a budget instead of silently killing the
// connection), and read deadlines bound how long a peer may stall
// mid-frame.
//
// The header's top bit is set on every frame this node writes; the low
// 31 bits are the payload length, which caps any payload at
// maxFramePayload — large enough for every frame the coalescer can build
// (maxFrameBytes is far below it) and small enough that the
// length prefix can never be silently truncated. A frame that arrives
// with the bit clear is not in this format (DESIGN.md, "Wire format"):
// the reader consumes it to its boundary and counts it as undecodable.

// frameHeaderLen is the size of the length prefix.
const frameHeaderLen = 4

// flagBinary marks a frame whose payload is an internal/wire payload.
const flagBinary = uint32(1) << 31

// maxFramePayload is the largest payload length the 31-bit length field
// can carry.
const maxFramePayload = int(flagBinary) - 1

// errFrameTooBig marks a frame whose declared payload exceeds the
// reader's maximum: the reader disconnects without reading the payload.
var errFrameTooBig = errors.New("tcptransport: frame exceeds size limit")

// errPayloadTooBig marks an outbound payload too large for the 31-bit
// length field; encoding fails instead of truncating the prefix.
var errPayloadTooBig = errors.New("tcptransport: frame payload exceeds 31-bit length field")

// finishBinaryFrame stamps the header onto a frame whose first
// frameHeaderLen bytes were reserved by the caller and whose remainder
// is the payload.
func finishBinaryFrame(frame []byte) error {
	if len(frame)-frameHeaderLen > maxFramePayload {
		return errPayloadTooBig
	}
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(len(frame)-frameHeaderLen)|flagBinary)
	return nil
}

// writeFrame writes one pre-encoded frame under a write deadline (0
// disables the deadline).
func writeFrame(conn net.Conn, frame []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(frame)
	return err
}

// frameReadStep is the most readFrame allocates for a payload before any
// of it arrives. A frame up to this size is read into one exact
// allocation; a bigger one grows its buffer as bytes arrive, so a peer
// that declares a huge frame and stalls pins no more than this.
const frameReadStep = 64 << 10

// readFrame reads one frame payload, enforcing the size limit and an
// idle deadline covering the whole frame (0 disables the deadline).
// isBinary reports the header's top bit; a payload read with it clear is
// not decodable.
// Oversized frames return errFrameTooBig without reading the payload.
func readFrame(conn net.Conn, maxBytes int, idle time.Duration) (payload []byte, isBinary bool, err error) {
	if idle > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return nil, false, err
		}
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, false, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	isBinary = n&flagBinary != 0
	n &^= flagBinary
	if int64(n) > int64(maxBytes) {
		return nil, isBinary, errFrameTooBig
	}
	size := int(n)
	payload = make([]byte, min(size, frameReadStep))
	_, err = io.ReadFull(conn, payload)
	for err == nil && len(payload) < size {
		// Double what has arrived, never past the declared size.
		have := len(payload)
		payload = append(payload, make([]byte, min(have, size-have))...)
		_, err = io.ReadFull(conn, payload[have:])
	}
	if err != nil {
		return nil, isBinary, err
	}
	return payload, isBinary, nil
}
