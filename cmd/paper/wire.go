package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/wire"
)

// wireReport encodes one representative envelope per message kind with
// the transport's codec and prints the encoded size next to the
// WireSize estimate the simulator's traffic accounting uses.
func wireReport(out io.Writer, p id.Params) error {
	from, to, snap, fill, err := wireSamples(p)
	if err != nil {
		return err
	}
	refB := to
	messages := []msg.Message{
		msg.CpRst{Level: p.D / 2},
		msg.CpRly{Table: snap},
		msg.JoinWait{},
		msg.JoinWaitRly{R: msg.Positive, U: refB, Table: snap},
		msg.JoinNoti{Table: snap, NotiLevel: 1, FillVector: fill},
		msg.JoinNotiRly{R: msg.Positive, F: true, Table: snap},
		msg.InSysNoti{},
		msg.SpeNoti{X: from, Y: refB},
		msg.SpeNotiRly{X: from, Y: refB},
		msg.RvNghNoti{Level: 1, Digit: 2, State: table.StateS},
		msg.RvNghNotiRly{Level: 1, Digit: 2, State: table.StateS},
		msg.Leave{Table: snap},
		msg.LeaveRly{},
		msg.Find{Want: from.ID.Suffix(p.D - 1), Origin: from},
		msg.FindRly{Want: from.ID.Suffix(p.D - 1), Found: table.Neighbor{ID: refB.ID, Addr: refB.Addr, State: table.StateS}},
		&msg.Ping{Seq: 1, Origin: from, Target: refB},
		msg.Pong{Seq: 1},
		msg.FailedNoti{Failed: refB},
		msg.SyncReq{Fill: fill},
		msg.SyncRly{Table: snap, Fill: fill},
		msg.SyncPush{Table: snap},
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "kind\tbinary bytes\testimate (WireSize)")
	total := 0
	for _, m := range messages {
		payload, err := wire.EncodePayload(p, msg.Envelope{From: from, To: refB, Msg: m})
		if err != nil {
			return fmt.Errorf("%v: %w", m.Type(), err)
		}
		total += len(payload)
		fmt.Fprintf(w, "%v\t%d\t%d\n", m.Type(), len(payload), m.WireSize())
	}
	fmt.Fprintf(w, "total\t%d\t\n", total)
	return w.Flush()
}

// wireSamples builds the refs, a half-filled table snapshot, and a fill
// vector representative of steady-state traffic under p.
func wireSamples(p id.Params) (from, to table.Ref, snap table.Snapshot, fill table.BitVector, err error) {
	raw := make([]byte, p.D)
	for i := range raw {
		raw[i] = byte((i*5 + 2) % p.B)
	}
	owner, err := id.FromRawDigits(p, string(raw))
	if err != nil {
		return from, to, snap, fill, err
	}
	for i := range raw {
		raw[i] = byte((i*3 + 1) % p.B)
	}
	other, err := id.FromRawDigits(p, string(raw))
	if err != nil {
		return from, to, snap, fill, err
	}
	from = table.Ref{ID: owner, Addr: "127.0.0.1:7001"}
	to = table.Ref{ID: other, Addr: "127.0.0.1:7002"}
	tbl := table.New(p, owner)
	count := 0
	for level := 0; level < p.D && count < 2*p.D; level++ {
		for digit := 0; digit < p.B && count < 2*p.D; digit += 2 {
			nraw := make([]byte, p.D)
			for j := 0; j < level; j++ {
				nraw[j] = byte(owner.Digit(j))
			}
			nraw[level] = byte(digit)
			for j := level + 1; j < p.D; j++ {
				nraw[j] = byte((j*7 + digit) % p.B)
			}
			nid, err2 := id.FromRawDigits(p, string(nraw))
			if err2 != nil {
				return from, to, snap, fill, err2
			}
			if nid == owner {
				continue
			}
			tbl.Set(level, digit, table.Neighbor{ID: nid, Addr: fmt.Sprintf("10.0.0.%d:7%03d", count, count), State: table.StateS})
			count++
		}
	}
	return from, to, tbl.Snapshot(), tbl.FillVector(), nil
}
