package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Errorf("Now = %v", e.Now())
	}
	if e.Pending() != 0 || e.Processed() != 0 {
		t.Error("fresh engine not empty")
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if n := e.Run(0); n != 3 {
		t.Fatalf("Run = %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of schedule order: %v", got)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 50 {
			e.Schedule(time.Millisecond, recur)
		}
	}
	e.Schedule(0, recur)
	e.Run(0)
	if depth != 50 {
		t.Errorf("depth = %d", depth)
	}
	if e.Now() != 49*time.Millisecond {
		t.Errorf("clock = %v", e.Now())
	}
	if e.Processed() != 50 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestZeroDelaySameTime(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*time.Millisecond, func() {
		e.Schedule(0, func() {
			if e.Now() != 10*time.Millisecond {
				t.Errorf("zero-delay event at %v", e.Now())
			}
		})
	})
	e.Run(0)
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleAt(42*time.Millisecond, func() { fired = true })
	e.Run(0)
	if !fired || e.Now() != 42*time.Millisecond {
		t.Errorf("fired=%v now=%v", fired, e.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(time.Millisecond, func() {})
	}()
}

func TestSchedulePanics(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative delay did not panic")
			}
		}()
		e.Schedule(-time.Second, func() {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil fn did not panic")
			}
		}()
		e.Schedule(time.Second, nil)
	}()
}

func TestRunMaxEventsPanics(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.Schedule(time.Millisecond, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway Run did not panic")
		}
	}()
	e.Run(100)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{5, 15, 25, 35} {
		d := d * time.Millisecond
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	n := e.RunUntil(nil, 20*time.Millisecond)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("RunUntil processed %d, fired %v", n, fired)
	}
	if e.Now() != 20*time.Millisecond {
		t.Errorf("clock = %v, want deadline", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run(0)
	if len(fired) != 4 {
		t.Errorf("remaining events lost: %v", fired)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var trace []int
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, depth)
			if depth < 6 {
				for i := 0; i < 2; i++ {
					e.Schedule(time.Duration(rng.Intn(100))*time.Millisecond, func() { spawn(depth + 1) })
				}
			}
		}
		e.Schedule(0, func() { spawn(0) })
		e.Run(0)
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

// TestHeapMatchesStableSort drives the queue with 10^4 random schedules
// interleaved with steps and a RunUntil, from both entry points, and
// requires the firing order of a model: pending events stably sorted by
// timestamp, i.e. FIFO among equal timestamps.
func TestHeapMatchesStableSort(t *testing.T) {
	type pending struct {
		at time.Duration
		id int
	}
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	var model []pending // in scheduling order
	var fired []int
	rec := recorder{fired: &fired}
	popModel := func() pending {
		sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
		head := model[0]
		model = model[1:]
		return head
	}
	check := func(want pending) {
		t.Helper()
		if got := fired[len(fired)-1]; got != want.id || e.Now() != want.at {
			t.Fatalf("fired event %d at %v, model says %d at %v", got, e.Now(), want.id, want.at)
		}
	}
	for id := 0; id < 10_000; id++ {
		// Few distinct delays, so equal timestamps are common.
		delay := time.Duration(rng.Intn(50)) * time.Millisecond
		model = append(model, pending{at: e.Now() + delay, id: id})
		if id%2 == 0 {
			e.Schedule(delay, func() { fired = append(fired, id) })
		} else {
			e.ScheduleHandler(delay, rec, id)
		}
		for rng.Intn(3) == 0 && len(model) > 0 {
			if !e.Step() {
				t.Fatalf("Step found nothing with %d events in the model", len(model))
			}
			check(popModel())
		}
	}

	deadline := e.Now() + 20*time.Millisecond
	before := len(fired)
	n := e.RunUntil(nil, deadline)
	for i := 0; i < int(n); i++ {
		want := popModel()
		if want.at > deadline || fired[before+i] != want.id {
			t.Fatalf("RunUntil fired %d, model says %d at %v (deadline %v)", fired[before+i], want.id, want.at, deadline)
		}
	}
	if e.Now() != deadline || e.Pending() != len(model) {
		t.Fatalf("after RunUntil: now %v pending %d, want %v and %d", e.Now(), e.Pending(), deadline, len(model))
	}
	for _, ev := range model {
		if ev.at <= deadline {
			t.Fatalf("RunUntil left event %d at %v queued, deadline %v", ev.id, ev.at, deadline)
		}
	}

	for len(model) > 0 {
		if !e.Step() {
			t.Fatalf("queue ran dry with %d events in the model", len(model))
		}
		check(popModel())
	}
	if e.Step() {
		t.Error("engine had events the model did not")
	}
}

// recorder is a Handler that appends the arg it is fired with.
type recorder struct{ fired *[]int }

func (r recorder) Handle(arg int) { *r.fired = append(*r.fired, arg) }

// TestScheduleStepDoesNotAllocate guards the steady state of the queue: a
// pre-built callback scheduled and fired with the queue at capacity.
func TestScheduleStepDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.Schedule(5*time.Millisecond, fn)
		e.Step()
	}); got != 0 {
		t.Errorf("Schedule+Step allocates %v times per run, want 0", got)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		e.Run(0)
	}
}

// lagged is a Windowed handler whose every event schedules up to two
// more at least width later, and records the windows it is handed and
// the order it handles events in.
type lagged struct {
	e       *Engine
	rng     *rand.Rand
	width   time.Duration
	handled []int
	windows [][]Event
	next    int
}

func (l *lagged) Width() time.Duration { return l.width }

func (l *lagged) Prepare(w []Event) { l.windows = append(l.windows, append([]Event(nil), w...)) }

func (l *lagged) Handle(arg int) {
	l.handled = append(l.handled, arg)
	for range l.rng.Intn(3) {
		if l.next < 2000 {
			l.next++
			l.e.ScheduleHandler(l.width+time.Duration(l.rng.Intn(40))*time.Millisecond, l, l.next)
		}
	}
}

// TestRunWindowedMatchesRun drives the same seeded schedule of handler
// events and closure barriers through Run and RunWindowed: the handled
// order and the clock must agree, and every window RunWindowed handed
// over must lie within the width and hold no barrier.
func TestRunWindowedMatchesRun(t *testing.T) {
	run := func(windowed bool) (*lagged, []string) {
		e := NewEngine()
		l := &lagged{e: e, rng: rand.New(rand.NewSource(3)), width: 5 * time.Millisecond}
		var order []string
		for i := range 50 {
			l.next++
			e.ScheduleHandler(time.Duration(i%7)*time.Millisecond, l, l.next)
		}
		for i := range 40 {
			at := time.Duration(i) * 9 * time.Millisecond
			e.ScheduleAt(at, func() { order = append(order, fmt.Sprintf("barrier %v after %d", at, len(l.handled))) })
		}
		if windowed {
			e.RunWindowed(l, math.MaxInt64, 0)
		} else {
			e.Run(0)
		}
		order = append(order, fmt.Sprintf("end %v, %d processed", e.Now(), e.Processed()))
		return l, order
	}
	seq, seqOrder := run(false)
	win, winOrder := run(true)
	if !slices.Equal(seq.handled, win.handled) || !slices.Equal(seqOrder, winOrder) {
		t.Fatalf("windowed run differs:\n%v\n%v", seqOrder, winOrder)
	}
	if len(seq.windows) != 0 || len(win.windows) == 0 {
		t.Fatalf("windows: %d under Run, %d under RunWindowed", len(seq.windows), len(win.windows))
	}
	for _, w := range win.windows {
		if span := w[len(w)-1].At - w[0].At; span >= win.width {
			t.Errorf("window spans %v, width %v", span, win.width)
		}
		for b := time.Duration(0); b < 40*9*time.Millisecond; b += 9 * time.Millisecond {
			if w[0].At < b && b <= w[len(w)-1].At {
				t.Errorf("window %v..%v holds the barrier at %v", w[0].At, w[len(w)-1].At, b)
			}
		}
	}
}
