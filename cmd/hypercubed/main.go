// Command hypercubed runs a single protocol node over real TCP: the
// deployable face of the library. A first node seeds a network; further
// nodes join through any member. Each daemon exposes an HTTP admin
// endpoint (status, table, metrics, trace, join, leave, pprof) and
// departs gracefully on SIGINT/SIGTERM, repairing its holders' tables
// on the way out.
//
// Start a seed, then join two more nodes:
//
//	hypercubed -listen 127.0.0.1:7001 -admin 127.0.0.1:8001 -name alpha
//	hypercubed -listen 127.0.0.1:7002 -admin 127.0.0.1:8002 -name beta \
//	    -join <seedID>@127.0.0.1:7001
//	curl -s 127.0.0.1:8002/status
//	curl -s 127.0.0.1:8002/metrics
//
// Observability: -trace writes every protocol event as JSONL (analyze
// with `trace report`), -trace-ring keeps the newest N events in memory
// behind GET /trace, -trace-sample enables causal tracing (crypto/rand
// span IDs, a trace context in each sampled wire record; merge per-node
// traces or scrape a fleet's /trace endpoints with `trace report
// -scrape`), -log-level=debug mirrors events into the log stream, and
// the admin server serves net/http/pprof under /debug/pprof/. A
// -trace-sample outside [0,1] or a negative -trace-ring is a usage
// error.
//
// The protocol stack is fixed: node.Shipped — the guard's misbehavior
// scorer, the failure detector with its RTT estimator, anti-entropy and
// the exchange timeouts, with no peer sampler — the profile the nemesis
// sweep and the E13–E18 scenarios check. Only deployment and
// observability are flags; any other flag, or a positional argument, is
// a usage error (exit 2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/node"
	"hypercube/internal/obs"
	"hypercube/internal/persist"
	"hypercube/internal/table"
	"hypercube/internal/trace"
	"hypercube/internal/transport/tcptransport"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// flags is the daemon's command line: where it listens, who it is, whom
// it joins through, and what it records.
type flags struct {
	listen, admin, name, id, join, dump string
	b, d                                int
	timeout                             time.Duration
	logLevel, trace                     string
	traceRing                           int
	traceSample                         float64
}

// run is main with its arguments, log stream and exit status as values.
// Exit 2 is a usage error; exit 1 a failure to start, join or leave.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("hypercubed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f flags
	fs.StringVar(&f.listen, "listen", "127.0.0.1:0", "protocol listen address")
	fs.StringVar(&f.admin, "admin", "", "HTTP admin listen address (empty = disabled)")
	fs.StringVar(&f.name, "name", "", "node name, hashed into the ID space (default: the listen address)")
	fs.StringVar(&f.id, "id", "", "explicit node ID (overrides -name)")
	fs.IntVar(&f.b, "b", 16, "digit base")
	fs.IntVar(&f.d, "d", 8, "digits per ID")
	fs.StringVar(&f.join, "join", "", "bootstrap as id@host:port; empty starts a new network (seed)")
	fs.StringVar(&f.dump, "dump", "", "write the neighbor table to this file on exit")
	fs.DurationVar(&f.timeout, "timeout", time.Minute, "join/leave completion timeout")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error (debug mirrors protocol events)")
	fs.StringVar(&f.trace, "trace", "", "write protocol events as JSONL to this file")
	fs.IntVar(&f.traceRing, "trace-ring", 0, "keep the newest N events in memory behind GET /trace (0 = off)")
	fs.Float64Var(&f.traceSample, "trace-sample", 0, "causal-trace head-sampling `rate` in [0,1]; sampled operations carry trace context on the wire (reconstruct fleet-wide with trace report; 0 = off, node stays an opaque hop)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hypercubed: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// !(0 <= x <= 1) also refuses NaN, which every comparison fails.
	if !(f.traceSample >= 0 && f.traceSample <= 1) {
		fmt.Fprintf(stderr, "hypercubed: -trace-sample %v is not a rate in [0,1]\n", f.traceSample)
		return 2
	}
	if f.traceRing < 0 {
		fmt.Fprintf(stderr, "hypercubed: -trace-ring %d is negative\n", f.traceRing)
		return 2
	}
	if err := serve(f, stderr); err != nil {
		fmt.Fprintf(stderr, "hypercubed: %v\n", err)
		return 1
	}
	return 0
}

// serve runs the node until SIGINT or SIGTERM, then leaves gracefully.
func serve(f flags, stderr io.Writer) error {
	p := id.Params{B: f.b, D: f.d}
	if err := p.Validate(); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(f.logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	log := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	nodeID, err := resolveID(p, f.id, f.name, f.listen)
	if err != nil {
		return err
	}
	log = log.With("node", nodeID.String())
	slog.SetDefault(log)

	// Sink: JSONL trace file and/or debug-level log mirror of every event.
	var sinks []obs.Sink
	var traceFile *obs.JSONL
	if f.trace != "" {
		traceFile, err = obs.NewJSONLFile(f.trace)
		if err != nil {
			return err
		}
		defer func() {
			if err := traceFile.Close(); err != nil {
				log.Error("trace file", "err", err)
			} else {
				log.Info("trace written", "path", f.trace, "events", traceFile.Emitted())
			}
		}()
		sinks = append(sinks, traceFile)
	}
	if level <= slog.LevelDebug {
		sinks = append(sinks, obs.NewSlogSink(log))
	}

	opts, parts := node.Shipped()
	parts.Sink = obs.Tee(sinks...)
	if f.traceSample > 0 {
		// crypto/rand span IDs: real deployments need them collision-free
		// across independently started processes, unlike the simulator's
		// deterministic streams.
		parts.Tracer = trace.NewTracer(trace.NewRandomGen(), f.traceSample)
	}
	stack := tcptransport.WithConfig(tcptransport.Config{Config: parts, TraceRing: f.traceRing})
	var n *tcptransport.Node
	if f.join == "" {
		n, err = tcptransport.StartSeed(p, opts, nodeID, f.listen, stack)
	} else {
		n, err = tcptransport.StartJoiner(p, opts, nodeID, f.listen, stack)
	}
	if err != nil {
		return err
	}
	defer n.Close()
	log.Info("node listening", "addr", n.Ref().Addr)

	if f.admin != "" {
		mux := http.NewServeMux()
		mux.Handle("/", n.AdminHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: f.admin, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("admin server", "err", err)
			}
		}()
		defer srv.Close()
		log.Info("admin endpoint up", "url", "http://"+f.admin,
			"paths", "/status /table /metrics /trace /join /leave /debug/pprof/")
	}

	if f.join != "" {
		boot, err := parseBootstrap(p, f.join)
		if err != nil {
			return err
		}
		if err := n.Join(boot); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
		err = n.AwaitStatus(ctx, core.StatusInSystem)
		cancel()
		if err != nil {
			return err
		}
		log.Info("joined the network", "bootstrap", boot.ID.String(),
			"tableEntries", n.Snapshot().FilledCount())
	}

	// Wait for shutdown, then leave gracefully so holders can repair.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Info("shutting down: announcing departure")
	if n.Status() == core.StatusInSystem {
		if err := n.Leave(); err != nil {
			log.Error("leave", "err", err)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
			if err := n.AwaitStatus(ctx, core.StatusLeft); err != nil {
				log.Error("departure not acknowledged", "err", err)
			} else {
				log.Info("departure acknowledged by all holders")
			}
			cancel()
		}
	}
	if f.dump != "" {
		if err := persist.SaveFileState(f.dump, n.Snapshot()); err != nil {
			return err
		}
		log.Info("table written", "path", f.dump)
	}
	return nil
}

func resolveID(p id.Params, idStr, name, listen string) (id.ID, error) {
	if idStr != "" {
		return id.Parse(p, idStr)
	}
	if name == "" {
		name = listen
	}
	return id.FromName(p, name), nil
}

func parseBootstrap(p id.Params, s string) (table.Ref, error) {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return table.Ref{}, fmt.Errorf("-join must be id@host:port, got %q", s)
	}
	bootID, err := id.Parse(p, s[:at])
	if err != nil {
		return table.Ref{}, fmt.Errorf("-join id: %w", err)
	}
	return table.Ref{ID: bootID, Addr: s[at+1:]}, nil
}
