// Command ddosd is the online forecasting daemon: it ingests verified
// attack records over HTTP, maintains per-target rolling windows in a
// sharded state store, refits the paper's three models (ARIMA temporal,
// NAR spatial, CART spatiotemporal) in the background after every K new
// records per target, and serves next-attack forecasts lock-free from an
// atomically swapped model snapshot (see DESIGN.md §7, §9).
//
// Usage:
//
//	ddosd [-addr :8080] [-refit-every 8] [-window 256] [-shards 64]
//	ddosd -data dataset.json                # warm-start from a trace
//	ddosd -snapshot models.snap             # warm-boot from a snapshot
//	ddosd -snapshot-out models.snap         # write a snapshot on shutdown
//	ddosd -wal-dir wal/                     # durable ingest + crash recovery
//	ddosd -wal-fsync 50ms                   # batch fsync (always|never|interval)
//	ddosd -detect                           # streaming detection tier (/alerts)
//	ddosd -log-level debug -log-format json # structured logging
//	ddosd -admin-addr 127.0.0.1:8081        # opt-in pprof/expvar listener
//	ddosd -cluster-self n1 \
//	      -cluster-peers n1=http://h1:8400,n2=http://h2:8400
//	                                        # cluster mode (DESIGN.md §12)
//
// With -wal-dir set, every accepted ingest is appended to a segmented
// CRC-framed write-ahead log before the HTTP ack. On boot the daemon
// replays checkpoint + WAL into the store (a torn final frame is
// truncated, never fatal), re-schedules refits, and resumes serving;
// sealed segments are checkpointed away in the background.
//
// Endpoints (serving mux):
//
//	POST /ingest               attack records (object, array, or NDJSON;
//	                           Content-Type application/x-ddos-batch posts
//	                           binary batch frames — see DESIGN.md §11)
//	GET  /forecast?target=AS   next-attack forecast for the target network
//	GET  /healthz              liveness + backlog summary; 503 once a
//	                           WAL fsync has failed
//	GET  /metrics              Prometheus text metrics
//	GET  /accuracy             windowed online forecast accuracy per model
//	GET  /alerts               streaming-detector counters + recent alerts
//	GET  /debug/traces         recent pipeline traces (JSON span trees;
//	                           ?trace=<id> merges spans cluster-wide)
//	GET  /statusz              full node status; in cluster mode, the
//	                           aggregated fleet snapshot
//	GET  /debug/bundle         SLO watchdog diagnostics bundles
//	GET  /buildinfo            module, version, platform
//
// With -cluster-peers set, a rendezvous-hash ring over the static
// membership assigns every target an owner node and one follower:
// /ingest and /forecast transparently proxy (or, with -cluster-route
// redirect, answer 307) to the owner, the owner's sealed WAL segments
// replicate to the follower via GET /cluster/wal, and POST
// /cluster/promote?dead=<id> removes a dead member so its follower takes
// over. Cluster mode requires -wal-dir.
//
// The -admin-addr mux additionally serves /debug/pprof/* and /debug/vars;
// keep it on localhost or behind operator-only network policy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		adminAddr   = flag.String("admin-addr", "", "opt-in admin listener for pprof/expvar (empty = disabled; keep on localhost)")
		data        = flag.String("data", "", "warm-start: ingest this dataset JSON at boot")
		snapshot    = flag.String("snapshot", "", "warm-boot: load a model snapshot at startup")
		snapshotOut = flag.String("snapshot-out", "", "write a model snapshot on graceful shutdown")
		refitEvery  = flag.Int("refit-every", 8, "refit a target after this many new records")
		window      = flag.Int("window", 256, "per-target rolling window capacity")
		shards      = flag.Int("shards", 64, "state store shard count")
		queue       = flag.Int("queue", 256, "refit queue depth")
		watermark   = flag.Int("watermark", 0, "refit backlog watermark for 429 shedding (0 = queue/2)")
		seed        = flag.Uint64("seed", 1, "refit determinism seed")
		epochs      = flag.Int("nar-epochs", 120, "NAR training epochs of a first fit or topology search (carried full refits train min(40, this) from the previous weights; fold-ins 40)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		traceSlow   = flag.Duration("trace-slow", 0, "retain only pipeline traces at least this long (0 = all)")
		traceCap    = flag.Int("trace-capacity", 64, "/debug/traces ring size")
		accWindow   = flag.Int("accuracy-window", 512, "sliding window of the online accuracy tracker")

		refitIncr    = flag.Bool("refit-incremental", true, "fold new records into existing models instead of full re-estimation when eligible")
		refitFullEvr = flag.Int("refit-full-every", 8, "force a full re-estimation after this many consecutive incremental refits")
		refitDrift   = flag.Float64("refit-drift-ratio", 4, "residual degradation ratio beyond which an incremental refit falls back to full")
		refitVerdict = flag.Bool("refit-verdict-filter", false, "exclude detector-alerted records from fit windows (needs -detect)")
		maxTargets   = flag.Int("max-targets", 0, "state-store target cap; over it, the least-recently-ingested target is evicted (0 = unbounded)")
		promoWindow  = flag.Int("promo-window", 64, "per-target accuracy window for champion/challenger promotion")
		promoMinSamp = flag.Int("promo-min-samples", 16, "scored arrivals a challenger needs before promotion")
		promoMargin  = flag.Float64("promo-margin", 0.05, "margin a challenger must beat the incumbent by: relative for the duration and magnitude errors, absolute for the timestamp hit rate")

		detectOn      = flag.Bool("detect", false, "enable the streaming detection tier (/alerts, ddosd_detect_*, per-record verdicts)")
		detectTrigger = flag.Float64("detect-trigger", 4, "rate alert trigger: window count over this multiple of the EWMA baseline")
		detectClear   = flag.Float64("detect-clear", 1.5, "rate alert clear: window count back under this multiple of the baseline (hysteresis)")
		detectMinRate = flag.Float64("detect-min-rate", 1, "trigger floor in records/sec — cold targets need at least this rate to alert")
		detectEntropy = flag.Float64("detect-entropy-drop", 0.3, "source-concentration alert: normalized bot-IP entropy drops below baseline times (1 - this)")
		detectCap     = flag.Int("detect-alert-cap", 256, "in-memory alert ring capacity served by /alerts")

		clusterPeers = flag.String("cluster-peers", "", "comma-separated cluster membership as name=url pairs (empty = single-node)")
		clusterSelf  = flag.String("cluster-self", "", "this node's member name within -cluster-peers")
		clusterRoute = flag.String("cluster-route", "proxy", "non-owned request handling: proxy or redirect")
		clusterPoll  = flag.Duration("cluster-poll", 500*time.Millisecond, "replication poll interval")

		wdDir       = flag.String("watchdog-dir", "", "SLO watchdog bundle directory (empty = watchdog disabled)")
		wdInterval  = flag.Duration("watchdog-interval", 5*time.Second, "watchdog rule evaluation interval")
		wdCooldown  = flag.Duration("watchdog-cooldown", time.Minute, "minimum spacing between diagnostics bundles")
		wdBundles   = flag.Int("watchdog-bundles", 8, "diagnostics bundles retained on disk (oldest pruned)")
		wdCPU       = flag.Duration("watchdog-cpu-profile", time.Second, "cpu.pprof capture length per bundle (negative = skip)")
		wdP99       = flag.Duration("watchdog-p99", 0, "breach when ingest p99 latency exceeds this (0 = rule off)")
		wdShedRate  = flag.Float64("watchdog-shed-rate", -1, "breach when the shed fraction since the last check exceeds this (negative = rule off)")
		wdReplLag   = flag.Int("watchdog-repl-lag", 0, "breach when replication lag exceeds this many segments (0 = rule off)")
		wdAlertRate = flag.Float64("watchdog-alert-rate", 0, "breach when the detector raises more alerts per minute than this (0 = rule off)")

		walDir      = flag.String("wal-dir", "", "write-ahead log directory for durable ingest + crash recovery (empty = disabled)")
		walFsync    = flag.String("wal-fsync", "always", "WAL fsync policy: always, never, or a batching interval like 50ms")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = 16 MiB)")
		maxIngest   = flag.Int64("max-ingest-bytes", 8<<20, "per-request /ingest body cap in bytes (over-limit = 413)")
		readHdrTO   = flag.Duration("read-header-timeout", 5*time.Second, "http server read-header timeout (slowloris guard)")
		readTO      = flag.Duration("read-timeout", 60*time.Second, "http server read timeout for the full request")
		idleTO      = flag.Duration("idle-timeout", 120*time.Second, "http server keep-alive idle timeout")
	)
	flag.Parse()
	// With the watchdog armed, the log stream tees through a ring so a
	// breach bundle can capture the last lines before the incident.
	var logW io.Writer = os.Stderr
	var logRing *obs.LogRing
	if *wdDir != "" {
		logRing = obs.NewLogRing(os.Stderr, 256)
		logW = logRing
	}
	logger, err := obs.NewLogger(logW, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddosd:", err)
		os.Exit(2)
	}
	opts := daemonOpts{
		addr:              *addr,
		adminAddr:         *adminAddr,
		data:              *data,
		snapshot:          *snapshot,
		snapshotOut:       *snapshotOut,
		walDir:            *walDir,
		walFsync:          *walFsync,
		walSegmentBytes:   *walSegBytes,
		clusterPeers:      *clusterPeers,
		clusterSelf:       *clusterSelf,
		clusterRoute:      *clusterRoute,
		clusterPoll:       *clusterPoll,
		maxIngestBytes:    *maxIngest,
		readHeaderTimeout: *readHdrTO,
		readTimeout:       *readTO,
		idleTimeout:       *idleTO,
		logger:            logger,
		logRing:           logRing,
		watchdog: serve.WatchdogConfig{
			Dir:             *wdDir,
			Interval:        *wdInterval,
			Cooldown:        *wdCooldown,
			MaxBundles:      *wdBundles,
			CPUProfile:      *wdCPU,
			IngestP99:       *wdP99,
			ShedRate:        *wdShedRate,
			ReplLagSegs:     *wdReplLag,
			AlertRatePerMin: *wdAlertRate,
		},
	}
	var detectCfg *detect.Config
	if *detectOn {
		detectCfg = &detect.Config{
			Trigger:     *detectTrigger,
			Clear:       *detectClear,
			MinRate:     *detectMinRate,
			EntropyDrop: *detectEntropy,
			AlertCap:    *detectCap,
		}
	}
	if err := run(opts, serve.Config{
		Shards:         *shards,
		Window:         *window,
		RefitEvery:     *refitEvery,
		QueueDepth:     *queue,
		LagWatermark:   *watermark,
		Seed:           *seed,
		Spatial:        core.SpatialConfig{Train: nn.TrainConfig{Epochs: *epochs}},
		TraceCapacity:  *traceCap,
		TraceSlow:      *traceSlow,
		AccuracyWindow: *accWindow,
		MaxBatchBytes:  *maxIngest,
		Detect:         detectCfg,

		IncrementalRefit:   *refitIncr,
		FullRefitEvery:     *refitFullEvr,
		DriftRatio:         *refitDrift,
		RefitVerdictFilter: *refitVerdict,
		MaxTargets:         *maxTargets,
		PromoWindow:        *promoWindow,
		PromoMinSamples:    *promoMinSamp,
		PromoMargin:        *promoMargin,
	}); err != nil {
		logger.Error("exiting", "component", "daemon", "error", err)
		os.Exit(1)
	}
}

// daemonOpts bundles run's wiring: flag values in production, plus the
// hooks tests use to drive a real daemon lifecycle in-process.
type daemonOpts struct {
	addr              string
	adminAddr         string
	data              string
	snapshot          string
	snapshotOut       string
	walDir            string
	walFsync          string
	walSegmentBytes   int64
	clusterPeers      string
	clusterSelf       string
	clusterRoute      string
	clusterPoll       time.Duration
	maxIngestBytes    int64
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
	logger            *slog.Logger
	// watchdog configures the SLO flight recorder (Dir empty = disabled);
	// logRing, when set, is the tee the logger already writes through, so
	// bundles capture the last lines before a breach.
	watchdog serve.WatchdogConfig
	logRing  *obs.LogRing
	// ready, when set, is called once the listener is bound — tests use it
	// to learn the picked port before sending traffic and signals.
	ready func(net.Addr)
}

// httpServer builds a server with the daemon's connection timeouts; both
// the public and the admin listener get them so a slowloris peer cannot
// pin connections open indefinitely.
func (o daemonOpts) httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
	}
}

func run(opts daemonOpts, cfg serve.Config) error {
	logger := opts.logger
	if logger == nil {
		logger, _ = obs.NewLogger(os.Stderr, "info", "text")
	}
	svc := serve.New(cfg)
	defer svc.Close()

	if opts.snapshot != "" {
		f, err := os.Open(opts.snapshot)
		if err != nil {
			return fmt.Errorf("open snapshot: %w", err)
		}
		err = svc.Registry().ReadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		logger.Info("loaded snapshot", "component", "boot", "path", opts.snapshot,
			"targets", svc.Registry().Size(), "version", svc.Registry().Version())
	}

	var walLog *wal.WAL
	if opts.walDir != "" {
		policy, err := wal.ParseSyncPolicy(opts.walFsync)
		if err != nil {
			return fmt.Errorf("-wal-fsync: %w", err)
		}
		walLog, err = wal.Open(wal.Options{
			Dir:          opts.walDir,
			SegmentBytes: opts.walSegmentBytes,
			Sync:         policy,
		})
		if err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		defer walLog.Close()
		t0 := time.Now()
		rs, err := svc.RecoverWAL(walLog, func(p serve.RecoveryStats) {
			logger.Debug("wal replay progress", "component", "wal",
				"segments", p.Segments, "replayed", p.Replayed, "skipped", p.Skipped)
		})
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		if rs.Truncated {
			logger.Warn("wal tail truncated at torn frame", "component", "wal",
				"segment", rs.TruncatedSeq, "offset", rs.TruncatedOff)
		}
		logger.Info("wal recovered", "component", "wal", "dir", opts.walDir,
			"checkpoint_targets", rs.CheckpointTargets, "segments", rs.Segments,
			"replayed", rs.Replayed, "duplicates", rs.Duplicates, "invalid", rs.Invalid, "skipped", rs.Skipped,
			"refits", rs.Refits, "fsync", policy.String(),
			"elapsed", time.Since(t0).Round(time.Millisecond).String())
		svc.AttachWAL(walLog, logger)
	}

	if opts.data != "" {
		ds, err := trace.LoadFile(opts.data)
		if err != nil {
			return err
		}
		t0 := time.Now()
		n, err := svc.WarmStart(ds)
		if err != nil {
			return err
		}
		logger.Info("warm start", "component", "boot", "records", n,
			"targets_served", svc.Registry().Size(),
			"elapsed", time.Since(t0).Round(time.Millisecond).String())
	}

	var node *cluster.Node
	handler := svc.Handler()
	if opts.clusterPeers != "" {
		if walLog == nil {
			return errors.New("cluster mode requires -wal-dir (replication ships WAL segments)")
		}
		peers, err := cluster.ParseMembers(opts.clusterPeers)
		if err != nil {
			return err
		}
		node, err = cluster.NewNode(svc, walLog, cluster.Config{
			Self:         opts.clusterSelf,
			Peers:        peers,
			Route:        opts.clusterRoute,
			PollInterval: opts.clusterPoll,
			MaxBodyBytes: opts.maxIngestBytes,
			Logger:       logger,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		handler = node.Handler(handler)
	}

	if opts.watchdog.Dir != "" {
		wcfg := opts.watchdog
		wcfg.Logger = logger
		if opts.logRing != nil {
			wcfg.LogLines = opts.logRing.Lines
		}
		if node != nil {
			wcfg.ReplLag = node.Lag
			nodeRef := node
			wcfg.Statusz = func() any { return nodeRef.FleetStatus(context.Background()) }
		}
		if _, err := svc.StartWatchdog(wcfg); err != nil {
			return fmt.Errorf("watchdog: %w", err)
		}
		logger.Info("watchdog armed", "component", "watchdog", "dir", wcfg.Dir,
			"interval", wcfg.Interval.String(), "cooldown", wcfg.Cooldown.String(),
			"p99", wcfg.IngestP99.String(), "shed_rate", wcfg.ShedRate,
			"repl_lag", wcfg.ReplLagSegs, "alert_rate", wcfg.AlertRatePerMin)
	}

	// Install the shutdown handler before the listener binds and readiness
	// is reported: a SIGTERM landing right after "listening" must still
	// reach the final checkpoint and snapshot below, not the default
	// action that kills the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	srv := opts.httpServer(handler)
	if node != nil {
		// Extra attrs append after addr so the smoke/CI readiness parse
		// (`msg=listening ... addr=<x>`) keeps matching.
		logger.Info("listening", "component", "http", "addr", ln.Addr().String(),
			"node", node.Self().ID, "ring_epoch", node.Ring().Epoch(), "route", node.RouteMode())
		node.Start()
	} else {
		logger.Info("listening", "component", "http", "addr", ln.Addr().String())
	}

	var adminSrv *http.Server
	if opts.adminAddr != "" {
		aln, err := net.Listen("tcp", opts.adminAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		adminSrv = opts.httpServer(obs.AdminMux())
		logger.Info("admin listening", "component", "admin", "addr", aln.Addr().String())
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin server failed", "component", "admin", "error", err)
			}
		}()
	}
	if opts.ready != nil {
		opts.ready(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("shutting down", "component", "daemon", "signal", s.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("admin shutdown", "component", "admin", "error", err)
		}
	}
	if walLog != nil {
		// One last checkpoint so the next boot replays (almost) nothing,
		// then detach before walLog's deferred Close.
		if err := svc.CheckpointWAL(); err != nil {
			logger.Warn("final wal checkpoint failed", "component", "wal", "error", err)
		}
		svc.DetachWAL()
		logger.Info("wal checkpointed", "component", "wal", "dir", opts.walDir)
	}
	if opts.snapshotOut != "" {
		svc.Flush()
		// Written via temp-file + rename so a crash mid-write never tears an
		// existing snapshot.
		err := wal.WriteFileAtomic(opts.snapshotOut, func(w io.Writer) error {
			return svc.Registry().WriteSnapshot(w)
		})
		if err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		logger.Info("wrote snapshot", "component", "daemon", "path", opts.snapshotOut,
			"targets", svc.Registry().Size(), "version", svc.Registry().Version())
	}
	return nil
}
