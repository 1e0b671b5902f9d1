// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock and an event queue ordered by (time, sequence number).
// Given the same seed and schedule, a simulation replays identically,
// which the protocol experiments rely on for reproducibility.
//
// RunWindowed adds conservative lookahead: it hands a handler its events
// a window [t, t+width) at a time to prepare together, then runs them as
// Run would.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Handler is an event target that needs no closure: the engine calls
// Handle with the argument the event was scheduled with. A driver that
// schedules one event per message implements it once and passes an index
// into its own storage as arg, so scheduling allocates nothing.
type Handler interface {
	Handle(arg int)
}

// funcHandler adapts a plain callback. A func value is pointer-shaped,
// so converting it to Handler does not allocate.
type funcHandler func()

func (f funcHandler) Handle(int) { f() }

// event is a scheduled call of h.Handle(arg).
type event struct {
	at  time.Duration
	seq uint64
	h   Handler
	arg int
}

// before is the queue order: time, then scheduling sequence. seq is
// unique per event, so the order is total and the pop sequence does not
// depend on the heap's shape.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of event values ordered by before:
// children of slot i sit at 4i+1..4i+4. Against a binary heap of
// pointers it halves the depth, keeps siblings in adjacent cache lines,
// and allocates only when the slice grows.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the handler reference
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// Event is one queued handler event as a window hands it over.
type Event struct {
	At  time.Duration
	Arg int
}

// Windowed is a Handler with lookahead: handling an event at t schedules
// nothing before t+Width(). Prepare gets each window of 2+ events first.
type Windowed interface {
	Handler
	Width() time.Duration
	Prepare(window []Event)
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// construct with NewEngine. Engines are not safe for concurrent use: the
// whole point is a single deterministic timeline.
type Engine struct {
	now       time.Duration
	seq       uint64
	queue     eventQueue
	processed uint64
	window    []Event // RunWindowed's buffer, reused
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after the given delay of virtual time. A negative
// delay is an error in the caller; it panics to surface the bug.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.ScheduleHandler(delay, funcHandler(fn), 0)
}

// ScheduleHandler runs h.Handle(arg) after the given delay of virtual
// time. It shares Schedule's sequence numbering, so events of both kinds
// fire in the order they were scheduled when their timestamps tie.
func (e *Engine) ScheduleHandler(delay time.Duration, h Handler, arg int) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	e.seq++
	e.queue.push(event{at: e.now + delay, seq: e.seq, h: h, arg: arg})
}

// ScheduleAt runs fn at the given absolute virtual time, which must not
// be in the past.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt %v is before now %v", at, e.now))
	}
	e.Schedule(at-e.now, fn)
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.processed++
	ev.h.Handle(ev.arg)
	return true
}

// Run executes events until the queue is empty and returns the number of
// events processed. maxEvents bounds runaway simulations; Run panics when
// the bound is hit because a non-quiescing protocol run is a bug the
// caller must see, never silently truncate. maxEvents <= 0 means no bound.
func (e *Engine) Run(maxEvents uint64) uint64 {
	return e.RunWindowed(nil, math.MaxInt64, maxEvents)
}

// RunUntil is RunWindowed for the events with timestamps <= deadline,
// unbounded, after which the clock stands at the deadline. Events beyond
// the deadline stay queued. w may be nil: one event at a time.
func (e *Engine) RunUntil(w Windowed, deadline time.Duration) uint64 {
	n := e.RunWindowed(w, deadline, 0)
	e.now = max(e.now, deadline)
	return n
}

// RunWindowed is Run for the events due by deadline, with lookahead for
// w: when w's event is next, it pops w's events due before its time plus
// w.Width(), up to another handler's (a barrier). Nothing they schedule
// falls among them, so w prepares them; each is then handled as Run would.
func (e *Engine) RunWindowed(w Windowed, deadline time.Duration, maxEvents uint64) uint64 {
	var n uint64
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		if w == nil || e.queue[0].h != Handler(w) {
			e.Step()
			n++
		} else {
			end, win := min(e.queue[0].at+w.Width(), deadline), e.window[:0]
			for len(win) == 0 || len(e.queue) > 0 && e.queue[0].h == Handler(w) && e.queue[0].at < end {
				ev := e.queue.pop()
				win = append(win, Event{At: ev.at, Arg: ev.arg})
			}
			if e.window = win; len(win) > 1 {
				w.Prepare(win)
			}
			for _, ev := range win {
				e.now = ev.At
				e.processed++
				w.Handle(ev.Arg)
			}
			n += uint64(len(win))
		}
		if maxEvents > 0 && n > maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events without quiescing", maxEvents))
		}
	}
	return n
}
