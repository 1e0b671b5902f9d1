package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call from the harness into a layer. Spans live in memory
// until the run ends; op is the round or join the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for none
	Op     int    `json:"op"`
	Self   int64  `json:"self_ns"` // duration minus the child spans'
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (r *recorder) begin(name string, parent, op int) int {
	if !r.tracing {
		return -1
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.start)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.start))
	r.spanMu.Lock()
	r.spans[id].End = now
	r.spanMu.Unlock()
}

// call runs f inside a span of the current round and returns how long
// it took.
func (r *recorder) call(name string, f func()) time.Duration {
	id := r.begin(name, r.roundSpan, r.round)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.end(id)
	return d
}

// selfTimes sets each span's self time: its duration minus the part of
// it that its child spans cover. Children of one parent may overlap (the
// fleet's clients run side by side), so the cover is their union.
func (r *recorder) selfTimes() {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range r.spans {
		p := &r.spans[i]
		p.Self = p.End - p.Start
		kids := children[i] // in start order: spans are appended as they begin
		covered := p.Start
		for _, k := range kids {
			from, to := max(r.spans[k].Start, covered), min(r.spans[k].End, p.End)
			if to > from {
				p.Self -= to - from
				covered = to
			}
		}
	}
}

func (r *recorder) writeTrace() error {
	r.selfTimes()
	if err := os.MkdirAll(r.cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.traceDir, "trace-"+r.cfg.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
