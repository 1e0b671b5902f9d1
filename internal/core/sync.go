// Anti-entropy support for the partition-tolerance extension: the
// machine side of the periodic table-audit protocol driven by
// internal/antientropy.
//
// A sync round is a push-pull digest exchange. The initiator sends its
// §6.2 fill vector (SyncReqMsg); the responder computes, from the two
// IDs alone, the canonical entry each of its occupants would fill in the
// initiator's table and replies with exactly the occupants whose bit is
// clear (SyncRlyMsg), attaching its own fill vector; the initiator
// merges, then pushes back whatever the responder is missing
// (SyncPushMsg). Merging reuses checkNghTable, which installs each
// harvested node at its canonical coordinate in the local table — so the
// exchange is owner-independent and converges any divergence, including
// the mutual blindness two partition sides develop while separated.
//
// AuditTable is the purge side: entries the netcheck predicates would
// classify as Ghost (occupant known crashed or departed) or WrongSuffix
// (occupant cannot legally sit in the entry) are cleared and repaired
// from the local table, falling back to the clock-driven repair jobs of
// timeout.go when no local replacement exists.
package core

import (
	"hypercube/internal/msg"
	"hypercube/internal/table"
	"hypercube/internal/trace"
)

// StartSync opens one anti-entropy round with peer and returns the
// SyncReqMsg to transmit. Only S-nodes sync; other statuses return nil.
// ctx is the round's externally-allocated trace context (zero when
// untraced): the anti-entropy engine owns the round's root span (its
// sync_round event carries it), and the round's SyncReq — and, on the
// initiator, the follow-up SyncPush — descend from it.
func (m *Machine) StartSync(peer table.Ref, ctx trace.Context) []msg.Envelope {
	if m.status != StatusInSystem || peer.IsZero() || peer.ID == m.self.ID {
		return nil
	}
	m.out = m.out[:0]
	m.cur = ctx
	m.send(peer, msg.SyncReq{Fill: m.tbl.FillVector()})
	m.cur = trace.Context{}
	return m.take()
}

// SyncPeers returns the distinct live nodes eligible as anti-entropy
// partners — table occupants plus reverse neighbors, minus self and
// known-bad nodes — sorted by ID so round-robin rotation is
// deterministic. Reverse neighbors matter after a partition heals: a
// node the far side just installed learns of its holder through the
// holder's RvNghNoti, and syncing back with that holder is the fastest
// route to everything else the far side knows. The result is the
// machine's own buffer, valid until the next SyncPeers. Crashed and
// departed nodes, sets that only grow, are left out when the candidates
// are built; a quarantine ends by the clock, so it is checked per call.
func (m *Machine) SyncPeers() []table.Ref {
	if at := m.syncKey(); m.syncCandsAt != at {
		m.syncCandsAt = at
		m.syncCands = m.syncCands[:0]
		m.tbl.ForEach(func(_, _ int, n table.Neighbor) {
			if n.ID != m.self.ID && !m.gone(n.ID) {
				m.syncCands = append(m.syncCands, n.Ref())
			}
		})
		for _, r := range m.reverse {
			if r.ID != m.self.ID && !m.gone(r.ID) {
				m.syncCands = append(m.syncCands, r)
			}
		}
		// One ref per node: where the table and the reverse set both
		// hold one, the reverse set's wins.
		m.syncCands = lastPerID(m.syncCands)
	}
	out := m.syncPeers[:0]
	for _, r := range m.syncCands {
		if !m.quarantined(r.ID) {
			out = append(out, r)
		}
	}
	m.syncPeers = out
	return out
}

// syncKey is what the machine's anti-entropy caches are built from:
// table version + 1 (so the zero key is never current), reverse-set
// generation, |failed|, |departed| and the scorer's quarantine count.
// Each part only grows, and each moves whenever its input changes in a
// way that can add a sync candidate or a bad table entry; a quarantine
// that ends removes one, so ends need not move the key.
type syncKey [5]uint64

func (m *Machine) syncKey() syncKey {
	var quarantines int
	if m.scorer != nil {
		quarantines = m.scorer.Stats().Quarantines
	}
	return syncKey{m.tbl.Version() + 1, m.reverseGen, uint64(len(m.failed)), uint64(len(m.departed)), uint64(quarantines)}
}

// News returns a generation that moves whenever what this node would
// exchange in a sync changes: a table write (pulled entries included)
// or a sync reply or push that shipped an entry, so a peer was missing
// it. A crash or departure recorded elsewhere changes nothing a sync
// carries unless it also changes the table, so it is not news.
func (m *Machine) News() uint64 { return m.tbl.Version() + uint64(m.syncShipped) }

// SyncPulled returns how many table entries were installed from peers'
// sync replies and pushes.
func (m *Machine) SyncPulled() int { return m.syncPulled }

// AuditPurged returns how many entries AuditTable has cleared.
func (m *Machine) AuditPurged() int { return m.auditPurged }

// AuditTable scans the local table for entries a netcheck would flag as
// Ghost (occupant declared crashed or departed) or WrongSuffix (occupant
// lacks the entry's desired suffix), purges them, and repairs each from
// the local table where possible — unrepaired entries become repair jobs
// for the clock-driven Find machinery. It returns the number of entries
// purged and the repair traffic to transmit. An audit that found
// nothing is not repeated until its inputs (syncKey) move.
func (m *Machine) AuditTable() (purged int, out []msg.Envelope) {
	at := m.syncKey()
	if m.status != StatusInSystem || m.auditedAt == at {
		return 0, nil
	}
	m.out = m.out[:0]
	var bad [][2]int
	m.tbl.ForEach(func(level, digit int, n table.Neighbor) {
		if n.ID == m.self.ID {
			return
		}
		// An occupant dropped unreachable is kept out, not purged: it
		// may be alive and merely unheard from here.
		if m.gone(n.ID) || m.quarantined(n.ID) || !m.tbl.Qualifies(level, digit, n.ID) {
			bad = append(bad, [2]int{level, digit})
		}
	})
	for _, e := range bad {
		gone := m.tbl.Get(e[0], e[1]).ID
		purged++
		m.auditPurged++
		m.repairOrQueue(e, gone)
	}
	if purged == 0 {
		m.auditedAt = at
	}
	return purged, m.take()
}

// onSyncReq answers an anti-entropy request: ship exactly the occupants
// whose canonical slot in the requester's table is empty per the digest,
// plus our own fill vector so the requester can push back in turn.
func (m *Machine) onSyncReq(from table.Ref, pm msg.SyncReq) {
	if m.status != StatusInSystem {
		return // joining or departing tables are not sync authorities
	}
	missing := m.tbl.MissingIn(from.ID, pm.Fill)
	if missing.FilledCount() > 0 {
		m.syncShipped++
	}
	m.send(from, msg.SyncRly{Table: missing, Fill: m.tbl.FillVector()})
}

// onSyncRly merges the pulled entries, then pushes back whatever the
// responder's fill vector showed it was missing.
func (m *Machine) onSyncRly(from table.Ref, pm msg.SyncRly) {
	if m.status != StatusInSystem {
		return
	}
	m.harvestSync(pm.Table)
	push := m.tbl.MissingIn(from.ID, pm.Fill)
	if push.FilledCount() > 0 {
		m.syncShipped++
		m.send(from, msg.SyncPush{Table: push})
	}
}

// onSyncPush merges the entries pushed back by the round's initiator.
func (m *Machine) onSyncPush(pm msg.SyncPush) {
	if m.status != StatusInSystem {
		return
	}
	m.harvestSync(pm.Table)
}

// harvestSync merges a sync table through checkNghTable (canonical-slot
// installation with reverse-neighbor notices) and counts the installs.
func (m *Machine) harvestSync(snap table.Snapshot) {
	before := m.tbl.FilledCount()
	m.checkNghTable(snap)
	m.syncPulled += m.tbl.FilledCount() - before
}
