// Leave protocol and failure recovery — the extensions §7 of the paper
// names as future work ("we plan to use this conceptual foundation to
// design protocols for leaving, failure recovery, and neighbor table
// optimization"). They follow the paper's design philosophy: the burden
// falls on the departing side where possible, and repairs use only local
// information plus routed queries.
//
// Graceful leave. A leaving node x sends LeaveMsg, carrying x.table, to
// every node known to store x (its reverse-neighbor set) and to every
// node x stores (so they drop x from their reverse sets). A holder u
// repairs each entry occupied by x using the attached table: if the entry
// wants suffix ω' and V∖{x} still has a member with ω', then x's own
// consistent table is guaranteed to contain one — take any y ∈ V_ω'∖{x}
// and let k = |csuf(x,y)| ≥ |ω'|; entry (k, y[k]) of x.table is non-empty
// by consistency and its occupant carries ω' (its desired suffix extends
// ω') — so local repair suffices and consistency is preserved. If no
// replacement exists in either table, the suffix died with x and the
// entry is correctly cleared.
//
// Failure recovery. When x crashes there is no table to repair from. A
// holder u first tries a local scan; failing that it sends a FindMsg
// toward the wanted suffix through a helper. Queries that would route
// through the dead node report Blocked and are retried after other
// holders repair their own entries.
//
// One record per entry. A repair the machine cannot finish at once is one
// record in Machine.repairs, keyed by the table entry (level, digit); a
// reply for the wanted suffix ω finds it at entry (|ω|-1, ω's leading
// digit). Two things open a record: a crash whose entry no local table can
// refill (a job that Tick drives with routed Find queries through rotating
// helpers), and a leave whose only remaining carriers of the suffix have
// departed too (a chase of their tables). While a record is open and its
// entry empty, a Find crossing the entry answers Blocked: the emptiness is
// no proof yet that the suffix is gone. A Find reply that refills the
// entry or proves the suffix absent answers the record, and the next Tick
// retires it; a chase closes when it finds a live carrier or runs out of
// departed ones; a refill from any other source retires a job at the next
// Tick; and a job whose queries came back blocked or lost
// maxRepairAttempts times is abandoned — the suffix died with x.
package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// StatusLeaving and StatusLeft extend the paper's status set for the
// leave protocol.
const (
	// StatusLeaving: the node has announced departure and is waiting for
	// LeaveRlyMsg acknowledgments.
	StatusLeaving Status = iota + 10
	// StatusLeft: departure complete; the machine is inert.
	StatusLeft
)

// StartLeave begins a graceful departure (only valid for S-nodes) and
// returns the LeaveMsg announcements. The node leaves once every holder
// acknowledged; Status() then reports StatusLeft. It fails if the node
// is not an S-node (a stray admin call must not crash a live process).
func (m *Machine) StartLeave() ([]msg.Envelope, error) {
	if m.status != StatusInSystem {
		return nil, fmt.Errorf("core: StartLeave on node %v in status %v", m.self.ID, m.status)
	}
	m.out = m.out[:0]
	m.setStatus(StatusLeaving)

	// Announce to everyone who stores us (reverse set) and everyone we
	// store (they must forget us as a reverse neighbor). One message per
	// distinct node, all sharing one boxed Leave.
	targets := m.neighborhood()
	var leave msg.Message = msg.Leave{Table: m.tbl.Snapshot()}
	m.leaveAcks = make(map[id.ID]struct{}, len(targets))
	for _, ref := range targets {
		m.leaveAcks[ref.ID] = struct{}{}
		m.send(ref, leave)
	}
	if len(m.leaveAcks) == 0 {
		m.setStatus(StatusLeft)
	}
	return m.take(), nil
}

// LeaveAcksPending returns the nodes whose LeaveRlyMsg a leaving node is
// still waiting for (empty unless status is leaving) — for diagnostics.
func (m *Machine) LeaveAcksPending() []id.ID {
	out := make([]id.ID, 0, len(m.leaveAcks))
	for x := range m.leaveAcks {
		out = append(out, x)
	}
	return out
}

// onLeave repairs every entry occupied by the leaver and acknowledges.
// A node that is itself departing only acknowledges: repairing its own
// soon-to-be-discarded table would send RvNghNoti messages that re-insert
// it into peers' reverse sets after they already processed its departure,
// leaving its own departure waiting for acks from long-gone nodes.
func (m *Machine) onLeave(from table.Ref, pm msg.Leave) {
	m.dropReverse(from.ID)
	m.reverseGen++
	if m.departed == nil {
		m.departed = make(map[id.ID]struct{})
	}
	m.departed[from.ID] = struct{}{}
	if m.status != StatusLeaving && m.status != StatusLeft {
		m.tbl.ForEach(func(level, digit int, n table.Neighbor) {
			if n.ID != from.ID {
				return
			}
			m.repairViaDonor(level, digit, from.ID, pm.Table)
		})
	}
	m.send(from, msg.LeaveRly{})
}

// onLeaveRly counts down the leaver's outstanding acknowledgments.
func (m *Machine) onLeaveRly(from table.Ref) {
	if m.status != StatusLeaving {
		return
	}
	delete(m.leaveAcks, from.ID)
	if len(m.leaveAcks) == 0 {
		m.setStatus(StatusLeft)
	}
}

// scanCandidates searches the donor snapshot and the local table for
// occupants carrying want: live (not known-departed) first, with the
// departed carriers collected for the BFS fallback.
func (m *Machine) scanCandidates(want id.Suffix, gone id.ID, donor table.Snapshot) (live table.Neighbor, departed []table.Neighbor) {
	seenDeparted := make(map[id.ID]bool)
	scan := func(n table.Neighbor) {
		if n.ID == gone || n.ID == m.self.ID || !n.ID.HasSuffix(want) {
			return
		}
		if _, crashed := m.failed[n.ID]; crashed {
			return // a known-crashed node is no replacement and has no table
		}
		if _, left := m.departed[n.ID]; left {
			if !seenDeparted[n.ID] {
				seenDeparted[n.ID] = true
				departed = append(departed, n)
			}
			return
		}
		if live.IsZero() {
			live = n
		}
	}
	if !donor.IsZero() {
		donor.ForEach(func(_, _ int, n table.Neighbor) { scan(n) })
	}
	m.tbl.ForEach(func(_, _ int, n table.Neighbor) { scan(n) })
	return live, departed
}

// repairFromTables refills entry (level,digit) after removing gone,
// searching the donor snapshot and the local table for a live qualifying
// replacement. It reports whether a replacement was installed.
func (m *Machine) repairFromTables(level, digit int, gone id.ID, donor table.Snapshot) bool {
	want := m.tbl.DesiredSuffix(level, digit)
	m.tbl.Set(level, digit, table.Neighbor{})
	live, _ := m.scanCandidates(want, gone, donor)
	if live.IsZero() {
		return false
	}
	m.setNeighbor(level, digit, live, false)
	return true
}

// repairViaDonor is the leave-time repair: install a live replacement if
// one is visible, otherwise chase the tables of departed carriers. Under
// concurrent leaves the donor's carrier for the wanted suffix may itself
// be leaving; departed nodes linger until their own departure is fully
// acknowledged, so their tables remain requestable (CpRstMsg). The chase
// is a breadth-first search with a visited set: for any live carrier y,
// every consistent carrier table contains a carrier strictly closer to y
// in suffix depth, so the BFS reaches y if it exists; exhaustion without
// a live carrier proves the suffix departed entirely.
func (m *Machine) repairViaDonor(level, digit int, gone id.ID, donor table.Snapshot) {
	want := m.tbl.DesiredSuffix(level, digit)
	m.tbl.Set(level, digit, table.Neighbor{})
	live, departedCands := m.scanCandidates(want, gone, donor)
	if !live.IsZero() {
		m.setNeighbor(level, digit, live, false)
		return
	}
	if len(departedCands) == 0 {
		return // suffix provably uninhabited among remaining members
	}
	m.chase(m.openRepair([2]int{level, digit}), departedCands)
}

// chase requests the table of every departed carrier the record has not
// visited yet.
func (m *Machine) chase(r *repair, departed []table.Neighbor) {
	if r.visited == nil {
		r.visited = make(map[id.ID]bool)
	}
	for _, c := range departed {
		if r.visited[c.ID] {
			continue
		}
		r.visited[c.ID] = true
		r.outstanding++
		m.send(c.Ref(), msg.CpRst{})
	}
}

// onRepairCpRly consumes a table copy requested while chasing departed
// carriers: fill from a live carrier if the copy reveals one, otherwise
// expand the search to newly discovered departed carriers.
func (m *Machine) onRepairCpRly(from table.Ref, donor table.Snapshot) {
	if m.status == StatusLeaving || m.status == StatusLeft {
		// Our table is being abandoned: drop every chase and every awaited
		// reply; the next Tick abandons the crash jobs.
		for e, r := range m.repairs {
			r.outstanding, r.awaiting, r.visited = 0, false, nil
			if r.avoid.IsNull() {
				delete(m.repairs, e)
			}
		}
		return
	}
	// Visit the chases that asked from in the order of their printed
	// suffixes, each rendered once.
	type keyed struct {
		key  string
		want id.Suffix
		e    [2]int
		r    *repair
	}
	var chases []keyed
	for e, r := range m.repairs {
		if r.visited[from.ID] && r.outstanding > 0 {
			want := m.tbl.DesiredSuffix(e[0], e[1])
			chases = append(chases, keyed{want.String(), want, e, r})
		}
	}
	slices.SortFunc(chases, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for _, c := range chases {
		c.r.outstanding--
		live, departedCands := m.scanCandidates(c.want, from.ID, donor)
		if !live.IsZero() {
			if m.tbl.Get(c.e[0], c.e[1]).IsZero() {
				m.setNeighbor(c.e[0], c.e[1], live, false)
			}
			m.endChase(c.e, c.r)
			continue
		}
		m.chase(c.r, departedCands)
		if c.r.outstanding == 0 {
			// Search exhausted: every carrier departed; the entry
			// correctly stays empty.
			m.endChase(c.e, c.r)
		}
	}
}

// endChase closes a finished chase. The record goes with it, unless a
// crash job shares it; the next Tick settles that.
func (m *Machine) endChase(e [2]int, r *repair) {
	if r.avoid.IsNull() {
		delete(m.repairs, e)
		return
	}
	r.answered, r.outstanding, r.awaiting, r.visited = true, 0, false, nil
}

// repair is the open repair of one table entry (see the package comment).
// A crash fills in the job's fields and a leave the chase's; one record
// can carry both, each with its own count of replies awaited.
type repair struct {
	// The crash job Tick drives: the crashed node its queries route
	// around (null for a chase alone, which Tick leaves be), the queries
	// spent, when the next is due, whether one was sent and not yet
	// settled, and whether its reply is awaited: not yet come, nor due.
	avoid            id.ID
	attempts         int
	due              time.Duration
	active, awaiting bool
	// blocked: the last Find reply was Blocked or named a known-bad node.
	blocked bool
	// answered: a reply refilled the entry or proved its suffix absent,
	// so an empty entry is evidence of absence again.
	answered bool
	// The chased table copies still awaited, and the departed carriers
	// whose tables the chase requested.
	outstanding int
	visited     map[id.ID]bool
}

// openRepair returns entry e's repair record, opening one if there is
// none. Either way the entry's emptiness stops being evidence until a
// reply answers it.
func (m *Machine) openRepair(e [2]int) *repair {
	r := m.repairs[e]
	if r == nil {
		if m.repairs == nil {
			m.repairs = make(map[[2]int]*repair)
		}
		r = &repair{}
		m.repairs[e] = r
	}
	r.answered = false
	return r
}

// repairOpen reports whether entry e is mid-repair: its emptiness proves
// nothing yet.
func (m *Machine) repairOpen(e [2]int) bool {
	r := m.repairs[e]
	return r != nil && !r.answered
}

// StartRejoin re-runs the join protocol for an established node, keeping
// its table. It exists for failure recovery: if the crashed node was the
// sole node storing this one (its "bridge" — possible when this node's
// join notified only the crashed node), no survivor can find this node by
// search, so it must re-announce itself. Re-joining reuses the notifying
// machinery, whose Theorem-1 guarantee is exactly that every node in the
// notification set ends up storing the (re-)joiner.
func (m *Machine) StartRejoin(g0 table.Ref) ([]msg.Envelope, error) {
	if m.status != StatusInSystem {
		return nil, fmt.Errorf("core: StartRejoin on node %v in status %v", m.self.ID, m.status)
	}
	if g0.IsZero() || g0.ID == m.self.ID {
		return nil, fmt.Errorf("core: StartRejoin with invalid bootstrap %v", g0.ID)
	}
	m.out = m.out[:0]
	m.startRejoin(g0)
	return m.take(), nil
}

// deepestNeighborIs reports whether who shares at least as many rightmost
// digits with this node as every other node in its table — the orphan
// heuristic: if a deepest-known neighbor crashed, it may have been the
// only node storing us, so we should re-join. Ties count as deepest: a
// same-depth neighbor does not necessarily store us (it may itself have
// joined through the crashed node), and a spurious re-join is cheap and
// harmless while a missed one leaves us unreachable.
func (m *Machine) deepestNeighborIs(who id.ID) bool {
	kWho := m.self.ID.CommonSuffixLen(who)
	deepest := true
	m.tbl.ForEach(func(_, _ int, n table.Neighbor) {
		if n.ID == m.self.ID || n.ID == who {
			return
		}
		if m.self.ID.CommonSuffixLen(n.ID) > kWho {
			deepest = false
		}
	})
	return deepest
}

// onFind routes a suffix query one hop (or answers it).
func (m *Machine) onFind(pm msg.Find) {
	if m.self.ID.HasSuffix(pm.Want) && m.self.ID != pm.Avoid {
		m.send(pm.Origin, msg.FindRly{
			Want:  pm.Want,
			Found: table.Neighbor{ID: m.self.ID, Addr: m.self.Addr, State: table.StateS},
		})
		return
	}
	k := m.self.ID.SuffixMatch(pm.Want)
	if k >= pm.Want.Len() || k >= m.params.D {
		// We carry the whole wanted suffix but are the avoided node (the
		// HasSuffix branch above did not answer): we cannot vouch for
		// another carrier, and entry (k, Want[k]) does not exist to route
		// on. Report Blocked so the origin retries elsewhere.
		m.send(pm.Origin, msg.FindRly{Want: pm.Want, Blocked: true})
		return
	}
	e := [2]int{k, pm.Want.Digit(k)}
	next := m.tbl.Get(e[0], e[1])
	switch {
	case next.IsZero() && m.repairOpen(e):
		// The entry is mid-repair: its emptiness proves nothing yet.
		// Tell the origin to retry.
		m.send(pm.Origin, msg.FindRly{Want: pm.Want, Blocked: true})
	case next.IsZero():
		// No member carries even the shorter suffix Want[k..0], hence
		// none carries Want: provably absent.
		m.send(pm.Origin, msg.FindRly{Want: pm.Want})
	case next.ID == pm.Avoid:
		m.send(pm.Origin, msg.FindRly{Want: pm.Want, Blocked: true})
	case next.ID == m.self.ID:
		// Unreachable for well-formed tables (the occupant's digit k must
		// equal Want[k], which differs from self[k]); report Blocked
		// rather than claiming provable absence.
		m.send(pm.Origin, msg.FindRly{Want: pm.Want, Blocked: true})
	default:
		m.send(next.Ref(), pm)
	}
}

// onFindRly applies a query result to the entry waiting on it: the one
// whose desired suffix is Want.
func (m *Machine) onFindRly(pm msg.FindRly) {
	if pm.Want.Len() == 0 || m.self.ID.SuffixMatch(pm.Want) < pm.Want.Len()-1 {
		return // no entry of ours desires Want
	}
	e := [2]int{pm.Want.Len() - 1, pm.Want.Leading()}
	r := m.repairs[e]
	if r == nil || !r.awaiting {
		return
	}
	r.awaiting = false
	r.blocked = pm.Blocked
	if pm.Blocked {
		return
	}
	if !pm.Found.IsZero() && m.knownBad(pm.Found.ID) {
		// A stale table answered with a node we know crashed or left:
		// treat as blocked so the repair retries elsewhere.
		r.blocked = true
		return
	}
	r.answered = true // filled or provably empty
	if !pm.Found.IsZero() && m.tbl.Get(e[0], e[1]).IsZero() {
		m.setNeighbor(e[0], e[1], pm.Found, false)
	}
}
