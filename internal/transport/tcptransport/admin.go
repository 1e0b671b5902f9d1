package tcptransport

import (
	"encoding/json"
	"fmt"
	"net/http"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/obs"
	"hypercube/internal/table"
)

// AdminHandler exposes a node's state and lifecycle over HTTP for
// operators:
//
//	GET  /status  — Stats as JSON: identity, protocol status, uptime,
//	                message counters, per-peer outbound queue depths,
//	                every attached part's counters
//	GET  /table   — the neighbor table as JSON
//	GET  /metrics — Prometheus text format: the numeric fields of the
//	                same Stats, plus the event-fed join-latency,
//	                probe-RTT and anti-entropy histograms
//	GET  /trace   — drain the in-memory event ring (requires
//	                Config.TraceRing; 404 otherwise)
//	POST /join    — body {"id":"...", "addr":"host:port"}: join via bootstrap
//	POST /leave   — start a graceful departure
//
// Mount it on any mux or serve it directly; cmd/hypercubed wires it to a
// local port.
func (n *Node) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", n.handleStatus)
	mux.HandleFunc("GET /table", n.handleTable)
	mux.Handle("GET /metrics", n.MetricsHandler())
	mux.HandleFunc("GET /trace", n.handleTrace)
	mux.HandleFunc("POST /join", n.handleJoin)
	mux.HandleFunc("POST /leave", n.handleLeave)
	return mux
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, n.Stats())
}

type tableEntry struct {
	Level int    `json:"level"`
	Digit int    `json:"digit"`
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"`
}

func (n *Node) handleTable(w http.ResponseWriter, r *http.Request) {
	var entries []tableEntry
	n.Snapshot().ForEach(func(level, digit int, nb table.Neighbor) {
		entries = append(entries, tableEntry{
			Level: level, Digit: digit,
			ID: nb.ID.String(), Addr: nb.Addr, State: nb.State.String(),
		})
	})
	writeJSON(w, map[string]any{
		"owner":   n.Ref().ID.String(),
		"entries": entries,
	})
}

type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	bootID, err := id.Parse(n.params, req.ID)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad bootstrap id: %v", err), http.StatusBadRequest)
		return
	}
	if n.Status() != core.StatusCopying {
		http.Error(w, fmt.Sprintf("node is %v, can only join from status copying", n.Status()), http.StatusConflict)
		return
	}
	if err := n.Join(table.Ref{ID: bootID, Addr: req.Addr}); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]string{"result": "joining"})
}

func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	events, ok := n.DrainTrace()
	if !ok {
		http.Error(w, "trace ring not enabled (start the node with Config.TraceRing)", http.StatusNotFound)
		return
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, map[string]any{"events": events})
}

func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	if n.Status() != core.StatusInSystem {
		http.Error(w, fmt.Sprintf("node is %v, can only leave from in_system", n.Status()), http.StatusConflict)
		return
	}
	if err := n.Leave(); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, map[string]string{"result": "leaving"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
