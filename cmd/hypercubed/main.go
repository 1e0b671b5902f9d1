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
// span IDs, wire-v2 trace trailers; merge per-node traces or scrape a
// fleet's /trace endpoints with `trace report -scrape`), -log-level=debug mirrors
// events into the log stream, and the admin server serves
// net/http/pprof under /debug/pprof/.
//
// Hostile-input hardening is on by default: inbound frames are bounded
// (-max-frame), malformed frames are budgeted per connection
// (-decode-budget), inbound envelopes are rate-limited (-inbound-rate,
// -inbound-burst), and a per-peer misbehavior scorer quarantines repeat
// offenders (-guard-threshold, -guard-decay, -guard-cooldown; disable
// scoring with -no-guard). Guard counters appear on /status and
// /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hypercube/internal/antientropy"
	"hypercube/internal/core"
	"hypercube/internal/guard"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/obs"
	"hypercube/internal/persist"
	"hypercube/internal/rtt"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
	"hypercube/internal/transport/tcptransport"
)

func main() {
	if err := run(); err != nil {
		slog.Error("hypercubed failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "protocol listen address")
		admin   = flag.String("admin", "", "HTTP admin listen address (empty = disabled)")
		name    = flag.String("name", "", "node name, hashed into the ID space (default: the listen address)")
		idStr   = flag.String("id", "", "explicit node ID (overrides -name)")
		b       = flag.Int("b", 16, "digit base")
		d       = flag.Int("d", 8, "digits per ID")
		join    = flag.String("join", "", "bootstrap as id@host:port; empty starts a new network (seed)")
		dump    = flag.String("dump", "", "write the neighbor table to this file on exit")
		timeout = flag.Duration("timeout", time.Minute, "join/leave completion timeout")

		// Observability knobs.
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error (debug mirrors protocol events)")
		tracePath   = flag.String("trace", "", "write protocol events as JSONL to this file")
		traceRing   = flag.Int("trace-ring", 0, "keep the newest N events in memory behind GET /trace (0 = off)")
		traceSample = flag.Float64("trace-sample", 0, "causal-trace head-sampling rate in [0,1]; sampled operations carry trace context on the wire (reconstruct fleet-wide with `trace report`; 0 = off, node stays a v1 opaque hop)")

		// Reliable-delivery knobs (0 keeps the transport default).
		attempts = flag.Int("max-attempts", 0, "delivery attempts per message before dead-lettering")
		backoff  = flag.Duration("backoff", 0, "base retry backoff (doubles per retry)")
		maxBack  = flag.Duration("max-backoff", 0, "retry backoff cap")
		queue    = flag.Int("queue-limit", 0, "per-peer outbound queue bound")

		// Hostile-input hardening knobs (0 keeps the transport default).
		flushDelay = flag.Duration("flush-delay", 0, "how long a peer's writer lingers to coalesce envelopes into one frame (0 = flush immediately)")

		maxFrame     = flag.Int("max-frame", 0, "largest accepted inbound wire frame in bytes")
		decodeBudget = flag.Int("decode-budget", 0, "malformed frames tolerated per connection before disconnect")
		inRate       = flag.Float64("inbound-rate", 0, "per-connection inbound envelopes per second")
		inBurst      = flag.Int("inbound-burst", 0, "token-bucket depth for -inbound-rate")
		readIdle     = flag.Duration("read-idle-timeout", 0, "idle inbound connection deadline")
		writeTimeout = flag.Duration("write-timeout", 0, "outbound frame write deadline")

		// Misbehavior-scorer knobs (0 keeps the guard default).
		noGuard       = flag.Bool("no-guard", false, "disable the per-peer misbehavior scorer (validation stays on)")
		guardScore    = flag.Float64("guard-threshold", 0, "misbehavior score that quarantines a peer")
		guardDecay    = flag.Duration("guard-decay", 0, "time for one unit of misbehavior score to drain")
		guardCooldown = flag.Duration("guard-cooldown", 0, "how long a quarantined peer's traffic is dropped")

		// Failure-detection knobs (0 keeps the liveness default).
		noLive       = flag.Bool("no-liveness", false, "disable failure detection and self-healing")
		probeEvery   = flag.Duration("probe-interval", 0, "gap between routine liveness probes")
		probeTimeout = flag.Duration("probe-timeout", 0, "unanswered-probe deadline")
		suspectAfter = flag.Int("suspect-after", 0, "consecutive misses before a peer is suspected")
		indirect     = flag.Int("indirect-probes", 0, "relayed probes per confirmation round (0 keeps the default of 3, negative turns them off)")
		retryAfter   = flag.Duration("retry-after", 2*time.Second, "join-protocol request timeout (0 disables)")

		// Adaptive-timeout knobs (gray-failure tolerance).
		adaptive = flag.Bool("adaptive-timeouts", false, "derive per-peer probe deadlines and retransmission timers from a live RTT estimator instead of the fixed -probe-timeout / -retry-after; flags persistently slow peers degraded")
		minRTO   = flag.Duration("min-rto", 0, "adaptive retransmission-timeout floor (0 keeps the estimator default)")
		maxRTO   = flag.Duration("max-rto", 0, "adaptive retransmission-timeout ceiling (0 keeps the estimator default)")

		// Anti-entropy knobs (0 keeps the antientropy default).
		noSync    = flag.Bool("no-sync", false, "disable anti-entropy table audit and repair")
		syncEvery = flag.Duration("sync-interval", 0, "gap between anti-entropy rounds")

		// Peer-sampling knobs (0 keeps the sampling default).
		noSample    = flag.Bool("no-sampling", false, "disable the gossip peer-sampling layer")
		sampleEvery = flag.Duration("sample-interval", 0, "gap between peer-sampling rounds")
		viewSize    = flag.Int("view-size", 0, "peer-sampling view bound")
		sampleSeed  = flag.Int64("sample-seed", 0, "peer-sampling determinism seed (mixed with the node ID)")
	)
	flag.Parse()
	p := id.Params{B: *b, D: *d}
	if err := p.Validate(); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	nodeID, err := resolveID(p, *idStr, *name, *listen)
	if err != nil {
		return err
	}
	log = log.With("node", nodeID.String())
	slog.SetDefault(log)

	// Sink: JSONL trace file and/or debug-level log mirror of every event.
	var sinks []obs.Sink
	var traceFile *obs.JSONL
	if *tracePath != "" {
		traceFile, err = obs.NewJSONLFile(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := traceFile.Close(); err != nil {
				log.Error("trace file", "err", err)
			} else {
				log.Info("trace written", "path", *tracePath, "events", traceFile.Emitted())
			}
		}()
		sinks = append(sinks, traceFile)
	}
	if level <= slog.LevelDebug {
		sinks = append(sinks, obs.NewSlogSink(log))
	}

	options := []tcptransport.Option{tcptransport.WithConfig(tcptransport.Config{
		FlushDelay:        *flushDelay,
		MaxAttempts:       *attempts,
		BaseBackoff:       *backoff,
		MaxBackoff:        *maxBack,
		QueueLimit:        *queue,
		MaxFrameBytes:     *maxFrame,
		DecodeErrorBudget: *decodeBudget,
		InboundRate:       *inRate,
		InboundBurst:      *inBurst,
		ReadIdleTimeout:   *readIdle,
		WriteTimeout:      *writeTimeout,
		Sink:              obs.Tee(sinks...),
		TraceRing:         *traceRing,
		TraceSample:       *traceSample,
	})}
	opts := core.Options{}
	if !*noGuard {
		opts.Guard = &guard.Policy{
			Threshold: *guardScore,
			Decay:     *guardDecay,
			Cooldown:  *guardCooldown,
		}
	}
	if !*noLive {
		options = append(options, tcptransport.WithLiveness(liveness.Config{
			ProbeInterval:  *probeEvery,
			ProbeTimeout:   *probeTimeout,
			SuspectAfter:   *suspectAfter,
			IndirectProbes: *indirect,
		}))
		opts.Timeouts = core.Timeouts{RetryAfter: *retryAfter}
	}
	if *adaptive {
		options = append(options, tcptransport.WithRTT(rtt.Config{
			MinRTO: *minRTO,
			MaxRTO: *maxRTO,
		}))
	}
	if !*noSync {
		options = append(options, tcptransport.WithAntiEntropy(antientropy.Config{
			Interval: *syncEvery,
		}))
	}
	if !*noSample {
		options = append(options, tcptransport.WithSampling(sampling.Config{
			ViewSize: *viewSize,
			Interval: *sampleEvery,
			Seed:     *sampleSeed,
		}))
	}
	var node *tcptransport.Node
	if *join == "" {
		node, err = tcptransport.StartSeed(p, opts, nodeID, *listen, options...)
	} else {
		node, err = tcptransport.StartJoiner(p, opts, nodeID, *listen, options...)
	}
	if err != nil {
		return err
	}
	defer node.Close()
	log.Info("node listening", "addr", node.Ref().Addr)

	if *admin != "" {
		mux := http.NewServeMux()
		mux.Handle("/", node.AdminHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: *admin, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("admin server", "err", err)
			}
		}()
		defer srv.Close()
		log.Info("admin endpoint up", "url", "http://"+*admin,
			"paths", "/status /table /metrics /trace /join /leave /debug/pprof/")
	}

	if *join != "" {
		boot, err := parseBootstrap(p, *join)
		if err != nil {
			return err
		}
		node.SeedSamplingPeers(boot)
		if err := node.Join(boot); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err = node.AwaitStatus(ctx, core.StatusInSystem)
		cancel()
		if err != nil {
			return err
		}
		log.Info("joined the network", "bootstrap", boot.ID.String(),
			"tableEntries", node.Snapshot().FilledCount())
	}

	// Wait for shutdown, then leave gracefully so holders can repair.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Info("shutting down: announcing departure")
	if node.Status() == core.StatusInSystem {
		if err := node.Leave(); err != nil {
			log.Error("leave", "err", err)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			if err := node.AwaitStatus(ctx, core.StatusLeft); err != nil {
				log.Error("departure not acknowledged", "err", err)
			} else {
				log.Info("departure acknowledged by all holders")
			}
			cancel()
		}
	}
	if *dump != "" {
		// Persist the sampler's long-term sample alongside the table: on
		// restart it is the rejoin bootstrap of last resort when every
		// table neighbor has moved on.
		if err := persist.SaveFileState(*dump, node.Snapshot(), node.SampledPeers(32)); err != nil {
			return err
		}
		log.Info("table written", "path", *dump)
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
