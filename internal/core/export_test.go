package core

import (
	"hypercube/internal/id"
	"hypercube/internal/msg"
	"hypercube/internal/table"
)

// RepairEntry launches one repair query, as Tick does for a due repair
// job, and returns what it sends.
func (m *Machine) RepairEntry(level, digit int, helper table.Ref, avoid id.ID) []msg.Envelope {
	m.out = m.out[:0]
	m.repairEntry(level, digit, helper, avoid)
	return m.take()
}

// RepairsPending returns the entries with unresolved repair jobs, sorted,
// in a buffer the machine reuses.
func (m *Machine) RepairsPending() [][2]int { return m.repairsPending() }
