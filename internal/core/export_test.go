package core

import (
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// MaxRepairAttempts is the number of queries a repair job spends before
// Tick abandons it.
const MaxRepairAttempts = maxRepairAttempts

// The budgets a machine sheds requests beyond.
const (
	MaxDeferredJoins = maxDeferredJoins
	MaxReverse       = maxReverse
)

// RepairEntry opens a repair job for entry (level, digit) routing around
// avoid, as a crash does when no local table refills the entry, and sends
// its first query through helper, as Tick does; it returns what it sends.
// A null avoid leaves a record that Tick does not drive.
func (m *Machine) RepairEntry(level, digit int, helper table.Ref, avoid id.ID) []msg.Envelope {
	m.out = m.out[:0]
	e := [2]int{level, digit}
	r := m.openRepair(e)
	r.avoid = avoid
	m.queryRepair(e, r, helper)
	return m.take()
}

// RepairsPending returns the entries with repair jobs, sorted, in a
// buffer the machine reuses.
func (m *Machine) RepairsPending() [][2]int { return m.repairsPending() }

// RepairOpen reports whether a Find crossing entry (level, digit) while
// it is empty would be answered Blocked: the entry is mid-repair.
func (m *Machine) RepairOpen(level, digit int) bool { return m.repairOpen([2]int{level, digit}) }

// DeepestNeighborIs is the orphan heuristic a crash declaration runs.
func (m *Machine) DeepestNeighborIs(who id.ID) bool { return m.deepestNeighborIs(who) }
