package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
)

// JSONL writes one JSON object per event, newline-delimited — the trace
// format ScanJSONL and `trace report` consume. Writes are buffered; call Flush (or
// Close, which also closes an owned file) before reading the output.
// Safe for concurrent use.
type JSONL struct {
	mu      sync.Mutex
	w       *bufio.Writer
	closer  io.Closer
	emitted int
	err     error
}

// NewJSONL wraps an open writer. The caller keeps ownership of w; Close
// only flushes.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
}

// NewJSONLFile creates (truncating) the file at path and owns it: Close
// flushes and closes it.
func NewJSONLFile(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace file: %w", err)
	}
	s := NewJSONL(f)
	s.closer = f
	return s, nil
}

// Emit implements Sink. Encoding errors are sticky and surfaced by
// Flush/Close; tracing must never take the protocol down.
func (s *JSONL) Emit(e Event) {
	buf, err := json.Marshal(e.schema())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	buf = append(buf, '\n')
	if _, err := s.w.Write(buf); err != nil {
		s.err = err
		return
	}
	s.emitted++
}

// Emitted returns how many events were written so far.
func (s *JSONL) Emitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted
}

// Flush drains the buffer and returns the first sticky error, if any.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Close flushes and, for file-owning sinks, closes the file.
func (s *JSONL) Close() error {
	err := s.Flush()
	s.mu.Lock()
	c := s.closer
	s.closer = nil
	s.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ScanJSONL decodes a JSONL trace stream, handing each event to fn in
// order without holding the stream in memory. Blank lines are skipped; a
// malformed line aborts with an error naming its line number.
func ScanJSONL(r io.Reader, fn func(Event)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		// Decoding the schema directly rather than through
		// Event.UnmarshalJSON spares encoding/json a second pass over
		// every line.
		var j eventJSON
		err := json.Unmarshal(b, &j)
		var e Event
		if err == nil {
			e, err = j.event()
		}
		if err != nil {
			return fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		fn(e)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: trace read: %w", err)
	}
	return nil
}

// Ring is a bounded in-memory sink: the newest Cap events are kept, the
// oldest silently overwritten. An admin endpoint (or a test) drains it
// for a recent-history view without unbounded growth. Safe for
// concurrent use.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // live events in buf
	dropped int
}

// NewRing creates a ring holding at most capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Drain returns the buffered events oldest-first and empties the ring.
func (r *Ring) Drain() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	r.start, r.n = 0, 0
	return out
}

// Len returns how many events are currently buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events were overwritten before being drained.
func (r *Ring) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// SlogSink renders events as structured debug logs, so a trace can
// double as a -log-level=debug stream without a second emit path.
type SlogSink struct {
	log *slog.Logger
}

// NewSlogSink wraps a logger; events log at Debug level.
func NewSlogSink(l *slog.Logger) *SlogSink { return &SlogSink{log: l} }

// Emit implements Sink.
func (s *SlogSink) Emit(e Event) {
	if !s.log.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	attrs := make([]any, 0, 16)
	attrs = append(attrs, "t", e.T, "node", e.Node)
	if !e.Peer.IsNull() {
		attrs = append(attrs, "peer", e.Peer.String())
	}
	if e.Msg != "" {
		attrs = append(attrs, "msg", e.Msg)
	}
	if e.Detail != "" {
		attrs = append(attrs, "detail", e.Detail)
	}
	if e.Seq != 0 {
		attrs = append(attrs, "seq", e.Seq)
	}
	if e.N != 0 {
		attrs = append(attrs, "n", e.N)
	}
	if e.RTT != 0 {
		attrs = append(attrs, "rtt", e.RTT)
	}
	s.log.Debug(string(e.Kind), attrs...)
}
