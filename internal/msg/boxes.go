package msg

import (
	"sync"
	"sync/atomic"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// Boxes is one ID space's table of boxed control messages: every CpRst
// a level can name and every RvNghNoti and RvNghNotiRly an entry and a
// state can name, each converted to a Message once. A join sends one
// RvNghNoti per table entry it fills, so sending (and decoding) these
// from the table instead of boxing each anew saves an allocation per
// message. The table is immutable once built and shared by every
// machine and decoder of the space; the values are equal to their
// literals, so no receiver can tell a shared box from a fresh one.
type Boxes struct {
	p        id.Params
	cpRst    []Message // by level
	rvNgh    []Message // by (level·b + digit)·2 + state − 1
	rvNghRly []Message // the same index
}

// boxes holds the one Boxes of each ID space asked for, built on first
// use: by the space's first machine, or its first decoded record. A
// process runs one space, and the decoder asks once per record from
// every connection's goroutine, so the last table handed out is read
// without the lock.
var boxes struct {
	sync.Mutex
	by   map[id.Params]*Boxes
	last atomic.Pointer[Boxes]
}

// BoxesFor returns the ID space's table of boxed control messages,
// building it on the first call for p. Every call for p returns the same
// table.
func BoxesFor(p id.Params) *Boxes {
	if x := boxes.last.Load(); x != nil && x.p == p {
		return x
	}
	boxes.Lock()
	defer boxes.Unlock()
	x := boxes.by[p]
	if x == nil {
		if boxes.by == nil {
			boxes.by = make(map[id.Params]*Boxes)
		}
		x = newBoxes(p)
		boxes.by[p] = x
	}
	boxes.last.Store(x)
	return x
}

func newBoxes(p id.Params) *Boxes {
	x := &Boxes{p: p}
	if p.Validate() != nil {
		return x // every value is out of range: each is boxed anew
	}
	x.cpRst = make([]Message, p.D)
	for level := range x.cpRst {
		x.cpRst[level] = CpRst{Level: level}
	}
	x.rvNgh = make([]Message, 2*p.D*p.B)
	x.rvNghRly = make([]Message, len(x.rvNgh))
	for level := range x.cpRst {
		for digit := 0; digit < p.B; digit++ {
			for _, s := range [...]table.State{table.StateT, table.StateS} {
				i := x.index(level, digit, s)
				x.rvNgh[i] = RvNghNoti{Level: level, Digit: digit, State: s}
				x.rvNghRly[i] = RvNghNotiRly{Level: level, Digit: digit, State: s}
			}
		}
	}
	return x
}

// index is the slot of (level, digit, s), or −1 when the table has none.
func (x *Boxes) index(level, digit int, s table.State) int {
	if level < 0 || level >= len(x.cpRst) || digit < 0 || digit >= x.p.B || (s != table.StateT && s != table.StateS) {
		return -1
	}
	return (level*x.p.B+digit)*2 + int(s) - 1
}

// CpRst returns CpRst{Level: level} as a Message.
func (x *Boxes) CpRst(level int) Message {
	if level >= 0 && level < len(x.cpRst) {
		return x.cpRst[level]
	}
	return CpRst{Level: level}
}

// RvNghNoti returns RvNghNoti{level, digit, s} as a Message.
func (x *Boxes) RvNghNoti(level, digit int, s table.State) Message {
	if i := x.index(level, digit, s); i >= 0 {
		return x.rvNgh[i]
	}
	return RvNghNoti{Level: level, Digit: digit, State: s}
}

// RvNghNotiRly returns RvNghNotiRly{level, digit, s} as a Message.
func (x *Boxes) RvNghNotiRly(level, digit int, s table.State) Message {
	if i := x.index(level, digit, s); i >= 0 {
		return x.rvNghRly[i]
	}
	return RvNghNotiRly{Level: level, Digit: digit, State: s}
}
