package msg

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

var p168 = id.Params{B: 16, D: 8}

func sampleSnapshot(t *testing.T) table.Snapshot {
	t.Helper()
	owner := id.MustParse(p168, "00123456")
	tbl := table.New(p168, owner)
	tbl.Set(0, 1, table.Neighbor{ID: id.MustParse(p168, "abcdef01"), State: table.StateS})
	tbl.Set(3, 2, table.Neighbor{ID: id.MustParse(p168, "00002456"), State: table.StateT})
	return tbl.Snapshot()
}

func TestTypeNamesMatchPaper(t *testing.T) {
	want := map[Type]string{
		TCpRst:        "CpRstMsg",
		TCpRly:        "CpRlyMsg",
		TJoinWait:     "JoinWaitMsg",
		TJoinWaitRly:  "JoinWaitRlyMsg",
		TJoinNoti:     "JoinNotiMsg",
		TJoinNotiRly:  "JoinNotiRlyMsg",
		TInSysNoti:    "InSysNotiMsg",
		TSpeNoti:      "SpeNotiMsg",
		TSpeNotiRly:   "SpeNotiRlyMsg",
		TRvNghNoti:    "RvNghNotiMsg",
		TRvNghNotiRly: "RvNghNotiRlyMsg",
	}
	for typ, name := range want {
		if got := typ.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", typ, got, name)
		}
	}
	if got := Type(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type renders %q", got)
	}
}

func TestTypesEnumeratesAll(t *testing.T) {
	types := Types()
	// 11 message types of Figure 4, the four §7-extension messages
	// (Leave, LeaveRly, Find, FindRly), the three liveness messages
	// (Ping, Pong, FailedNoti), the three anti-entropy messages
	// (SyncReq, SyncRly, SyncPush), and the three peer-sampling messages
	// (SamplePush, SamplePullReq, SamplePullRly).
	if len(types) != 24 {
		t.Fatalf("Types() has %d entries, want 24", len(types))
	}
	seen := make(map[Type]bool)
	for _, typ := range types {
		if seen[typ] {
			t.Errorf("duplicate type %v", typ)
		}
		seen[typ] = true
	}
	// Zero is the same enumeration as values: one message per type, in
	// Type order, so a new type cannot be left out of per-type questions.
	zero := Zero()
	if len(zero) != len(types) {
		t.Fatalf("Zero() has %d entries, want %d", len(zero), len(types))
	}
	for i, m := range zero {
		if m.Type() != types[i] {
			t.Errorf("Zero()[%d] is %v, want %v", i, m.Type(), types[i])
		}
	}
}

func TestBigClassification(t *testing.T) {
	// §5.2: messages that may carry a table copy are big.
	snap := sampleSnapshot(t)
	big := []Message{
		CpRly{Table: snap},
		JoinWaitRly{R: Positive, Table: snap},
		JoinNoti{Table: snap},
		JoinNotiRly{R: Negative, Table: snap},
		Leave{Table: snap},
		SyncRly{Table: snap},
		SyncPush{Table: snap},
	}
	small := []Message{
		CpRst{}, JoinWait{}, InSysNoti{},
		SpeNoti{}, SpeNotiRly{}, RvNghNoti{}, RvNghNotiRly{},
		LeaveRly{}, Find{}, FindRly{},
		&Ping{}, Pong{}, FailedNoti{}, SyncReq{},
		SamplePush{}, SamplePullReq{}, SamplePullRly{},
	}
	for _, m := range big {
		if !m.Big() {
			t.Errorf("%v should be big", m.Type())
		}
	}
	for _, m := range small {
		if m.Big() {
			t.Errorf("%v should be small", m.Type())
		}
	}
}

func TestWireSizeOrdering(t *testing.T) {
	snap := sampleSnapshot(t)
	if (JoinNoti{Table: snap}).WireSize() <= (JoinWait{}).WireSize() {
		t.Error("table-carrying message not larger than small message")
	}
	if (CpRst{}).WireSize() <= 0 {
		t.Error("CpRst has non-positive size")
	}
	withRef := SpeNoti{X: table.Ref{ID: snap.Owner(), Addr: "10.0.0.1:1"}}
	if withRef.WireSize() <= (SpeNoti{}).WireSize() {
		t.Error("populated refs should grow the message")
	}
}

func TestResultString(t *testing.T) {
	if Positive.String() != "positive" || Negative.String() != "negative" {
		t.Error("Result strings wrong")
	}
	if got := Result(7).String(); !strings.Contains(got, "7") {
		t.Errorf("unknown result renders %q", got)
	}
}

func TestEnvelopeString(t *testing.T) {
	a := id.MustParse(p168, "00000001")
	b := id.MustParse(p168, "00000002")
	e := Envelope{From: table.Ref{ID: a}, To: table.Ref{ID: b}, Msg: JoinWait{}}
	s := e.String()
	if !strings.Contains(s, "00000001") || !strings.Contains(s, "JoinWaitMsg") {
		t.Errorf("envelope renders %q", s)
	}
	if e.WireSize() != (JoinWait{}).WireSize() {
		t.Error("envelope size != message size")
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	snap := sampleSnapshot(t)
	c.CountSent(JoinNoti{Table: snap})
	c.CountSent(JoinNoti{Table: snap})
	c.CountSent(JoinWait{})
	c.CountReceived(CpRly{Table: snap})
	if got := c.SentOf(TJoinNoti); got != 2 {
		t.Errorf("SentOf(JoinNoti) = %d", got)
	}
	if got := c.SentOf(TJoinWait); got != 1 {
		t.Errorf("SentOf(JoinWait) = %d", got)
	}
	if got := c.ReceivedOf(TCpRly); got != 1 {
		t.Errorf("ReceivedOf(CpRly) = %d", got)
	}
	if got := c.TotalSent(); got != 3 {
		t.Errorf("TotalSent = %d", got)
	}
	if c.BytesSent <= 0 {
		t.Error("BytesSent not accumulated")
	}

	var d Counters
	d.CountSent(JoinNotiRly{Table: snap})
	d.CountSent(CpRly{Table: snap})
	c.Add(&d)
	if got := c.BigSent(); got != 4 { // 2 JoinNoti + 1 JoinNotiRly + 1 CpRly
		t.Errorf("BigSent = %d, want 4", got)
	}
	if got := c.TotalSent(); got != 5 {
		t.Errorf("after Add TotalSent = %d, want 5", got)
	}
}

func TestCountersDelivery(t *testing.T) {
	var c Counters
	c.CountRetried(TJoinNoti)
	c.CountRetried(TJoinNoti)
	c.CountRetried(TCpRst)
	c.CountDropped(TJoinWait)
	if got := c.RetriedOf(TJoinNoti); got != 2 {
		t.Errorf("RetriedOf(JoinNoti) = %d", got)
	}
	if got := c.TotalRetried(); got != 3 {
		t.Errorf("TotalRetried = %d", got)
	}
	if got := c.DroppedOf(TJoinWait); got != 1 {
		t.Errorf("DroppedOf(JoinWait) = %d", got)
	}
	if got := c.TotalDropped(); got != 1 {
		t.Errorf("TotalDropped = %d", got)
	}

	var d Counters
	d.CountRetried(TCpRst)
	d.CountDropped(TCpRst)
	c.Add(&d)
	if got := c.RetriedOf(TCpRst); got != 2 {
		t.Errorf("after Add RetriedOf(CpRst) = %d", got)
	}
	if got := c.TotalDropped(); got != 2 {
		t.Errorf("after Add TotalDropped = %d", got)
	}
}

// TestCountersAddSumsEveryField guards the one hand-written sum left
// (every part's stats struct sums through obs.AddStruct, whose walk
// skips arrays): every tally of every family, and every other field,
// must double after two Adds of the same counters.
func TestCountersAddSumsEveryField(t *testing.T) {
	var one, sum Counters
	// ints visits every int in c's fields and in their arrays, in order.
	ints := func(c *Counters, fn func(name string, v reflect.Value)) {
		v := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			name, f := v.Type().Field(i).Name, v.Field(i)
			switch f.Kind() {
			case reflect.Array:
				for j := 0; j < f.Len(); j++ {
					fn(name, f.Index(j))
				}
			case reflect.Int:
				fn(name, f)
			default:
				t.Fatalf("Counters.%s is a %v: teach this test to fill it", name, f.Kind())
			}
		}
	}
	// The k-th int visited holds k, so every field and tally differs.
	k := int64(0)
	ints(&one, func(_ string, v reflect.Value) { k++; v.SetInt(k) })
	sum.Add(&one)
	sum.Add(&one)
	k = 0
	ints(&sum, func(name string, v reflect.Value) {
		if k++; v.Int() != 2*k {
			t.Errorf("Counters.%s: %d after two Adds of %d", name, v.Int(), k)
		}
	})
}

// TestCountersJSON pins the by-name view /status serves: one object per
// tally keyed by type name with zero counts left out, and a decode that
// gives the counters back.
func TestCountersJSON(t *testing.T) {
	var c Counters
	c.Sent[TCpRst], c.Sent[TSamplePullRly] = 2, 3
	c.Rejected[0] = 1
	c.BytesSent = 40
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"sent":{"CpRstMsg":2,"SamplePullRlyMsg":3},"received":{},"retried":{},"dropped":{},"rejected":{"Type(0)":1},"bytesSent":40}`
	if string(b) != want {
		t.Errorf("Counters JSON =\n%s\nwant\n%s", b, want)
	}
	var back Counters
	if err := json.Unmarshal(b, &back); err != nil || back != c {
		t.Errorf("round trip = %+v, %v; want %+v", back, err, c)
	}
}

func TestAllMessagesTypeAndSize(t *testing.T) {
	snap := sampleSnapshot(t)
	ref := table.Ref{ID: snap.Owner(), Addr: "10.0.0.1:9000"}
	nb := table.Neighbor{ID: snap.Owner(), Addr: "10.0.0.1:9000", State: table.StateS}
	suffix := snap.Owner().Suffix(3)
	cases := []struct {
		m    Message
		want Type
	}{
		{CpRst{Level: 2}, TCpRst},
		{CpRly{Table: snap}, TCpRly},
		{JoinWait{}, TJoinWait},
		{JoinWaitRly{R: Positive, U: ref, Table: snap}, TJoinWaitRly},
		{JoinNoti{Table: snap, NotiLevel: 1}, TJoinNoti},
		{JoinNotiRly{R: Negative, Table: snap, F: true}, TJoinNotiRly},
		{InSysNoti{}, TInSysNoti},
		{SpeNoti{X: ref, Y: ref}, TSpeNoti},
		{SpeNotiRly{X: ref, Y: ref}, TSpeNotiRly},
		{RvNghNoti{Level: 1, Digit: 2, State: table.StateT}, TRvNghNoti},
		{RvNghNotiRly{Level: 1, Digit: 2, State: table.StateS}, TRvNghNotiRly},
		{Leave{Table: snap}, TLeave},
		{LeaveRly{}, TLeaveRly},
		{Find{Want: suffix, Origin: ref, Avoid: snap.Owner()}, TFind},
		{FindRly{Want: suffix, Found: nb}, TFindRly},
		{&Ping{Seq: 7, Origin: ref, Target: ref}, TPing},
		{Pong{Seq: 7}, TPong},
		{FailedNoti{Failed: ref}, TFailedNoti},
		{SyncReq{Fill: table.NewBitVector(p168.B * p168.D)}, TSyncReq},
		{SyncRly{Table: snap, Fill: table.NewBitVector(p168.B * p168.D)}, TSyncRly},
		{SyncPush{Table: snap}, TSyncPush},
		{SamplePush{}, TSamplePush},
		{SamplePullReq{}, TSamplePullReq},
		{SamplePullRly{Refs: []table.Ref{ref}}, TSamplePullRly},
	}
	if len(cases) != len(Types()) {
		t.Fatalf("case list covers %d of %d message types", len(cases), len(Types()))
	}
	for _, tc := range cases {
		if got := tc.m.Type(); got != tc.want {
			t.Errorf("%T.Type() = %v, want %v", tc.m, got, tc.want)
		}
		if size := tc.m.WireSize(); size <= 0 {
			t.Errorf("%v.WireSize() = %d", tc.want, size)
		}
	}
	// Populated messages are larger than their zero forms.
	if (Find{Want: suffix, Origin: ref}).WireSize() <= (Find{}).WireSize() {
		t.Error("populated Find not larger than empty Find")
	}
	if (FindRly{Found: nb}).WireSize() <= (FindRly{}).WireSize() {
		t.Error("populated FindRly not larger than empty FindRly")
	}
	if (Leave{Table: snap}).WireSize() <= (LeaveRly{}).WireSize() {
		t.Error("Leave with table not larger than its ack")
	}
}
