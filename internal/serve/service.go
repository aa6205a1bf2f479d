// Package serve is the online forecasting subsystem behind cmd/ddosd: a
// sharded per-target state store holding each target network's rolling
// attack window, a model registry serving forecasts lock-free from an
// atomically swapped snapshot, and a background refit scheduler that
// refits a target after every K ingested records or once its oldest
// unread record is a second old, with bounded-queue admission and load
// shedding. It turns the repository's batch models
// (ARIMA temporal, NAR spatial, CART spatiotemporal) into an operational
// early-warning service: ingest attack records as they are verified, read
// next-attack forecasts per target at any time. See DESIGN.md §7.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config tunes the service. The zero value gets production-ish defaults;
// tests shrink the windows and model grids.
type Config struct {
	// Shards is the state-store shard count (rounded up to a power of two).
	// Default 64.
	Shards int
	// Window caps each target's rolling attack window. Default 256.
	Window int
	// MinWindow is the fewest records a target needs before its first fit.
	// Default 8.
	MinWindow int
	// MinSTWindow is the fewest records before the spatiotemporal tree is
	// attempted (the walk-forward sample construction needs headroom).
	// Default 32.
	MinSTWindow int
	// RefitEvery re-queues a target after this many new records (or
	// sooner, on the staleness deadline). Default 8.
	RefitEvery int
	// QueueDepth bounds the refit queue. Default 256.
	QueueDepth int
	// LagWatermark is the refit backlog (queued + in-flight) beyond which
	// ingest is shed with 429. Default QueueDepth/2.
	LagWatermark int
	// BatchSize caps how many queued targets one refit round takes; each
	// target publishes on its own when its fit ends, and the next round
	// starts when the round's last fit does. Default 16.
	BatchSize int
	// RefitWorkers bounds the per-round fit fan-out (0 = parallel.Workers()).
	RefitWorkers int
	// MaxBatchRecords caps records accepted per ingest request. Default 10000.
	MaxBatchRecords int
	// MaxBatchBytes caps one /ingest request body in bytes
	// (http.MaxBytesReader; over-limit requests answer 413). Default 8 MiB.
	MaxBatchBytes int64
	// Seed makes refits deterministic per target window.
	Seed uint64
	// WrapFit optionally wraps the per-target refit function — the seam the
	// chaos harness uses to inject slow or failing refits (internal/chaos),
	// also usable for instrumentation. nil means fit directly.
	WrapFit func(FitFunc) FitFunc

	// TraceCapacity is the /debug/traces ring size. Default 64.
	TraceCapacity int
	// TraceSlow retains only pipeline traces at least this long in the
	// ring (stage histograms always observe). Default 0: retain all.
	TraceSlow time.Duration
	// AccuracyWindow is the sliding-window length of the online
	// forecast-accuracy tracker. Default 512.
	AccuracyWindow int
	// StageBuckets overrides the ddosd_stage_seconds histogram bounds
	// (nil = metrics.DefBuckets).
	StageBuckets []float64
	// IncrementalRefit enables the O(new records) refit path: fold-in
	// updates of the previous generation's models when the window tail is
	// small and drift diagnostics stay quiet, with automatic fallback to a
	// full refit otherwise. Default false (cmd/ddosd enables it).
	IncrementalRefit bool
	// FullRefitEvery forces a full re-estimation after this many
	// consecutive incremental refits of a target (bounds drift and
	// re-fits the spatiotemporal tree). Default 8.
	FullRefitEvery int
	// DriftRatio is the residual-degradation ratio beyond which an
	// incremental refit aborts in favor of a full one. Default 4.
	DriftRatio float64
	// RefitVerdictFilter excludes detector-alerted records (non-zero
	// stored verdict) from fit windows when enough clean records remain.
	// Default false.
	RefitVerdictFilter bool
	// MaxTargets caps state-store targets; over the cap, ingesting a new
	// target evicts the least-recently-ingested one from its shard (store,
	// registry, and promotion trackers all drop it). Default 0: unbounded.
	MaxTargets int
	// PromoWindow is the per-target accuracy window length used by
	// champion/challenger promotion. Default 64.
	PromoWindow int
	// PromoMinSamples is the fewest scored arrivals a challenger needs for
	// a measure before it may be promoted. Default 16.
	PromoMinSamples int
	// PromoMargin is the relative improvement a challenger must show over
	// the incumbent (hit rates: absolute). Default 0.05.
	PromoMargin float64
	// Detect, when non-nil, enables the streaming detection tier
	// (DESIGN.md §13): every accepted record is evaluated under its shard
	// lock before the append, its verdict recorded on the stored record,
	// and raise/clear transitions exposed over /alerts and ddosd_detect_*.
	// Default nil: detection off (the store and WAL byte-images are then
	// identical to a pre-detect build).
	Detect *detect.Config

	// Model configuration shared with the batch layer.
	Temporal core.TemporalConfig
	Spatial  core.SpatialConfig
	ST       core.STConfig
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 64
	}
	if c.Window < 1 {
		c.Window = 256
	}
	if c.MinWindow < 3 {
		c.MinWindow = 8
	}
	if c.MinSTWindow < 1 {
		c.MinSTWindow = 32
	}
	if c.RefitEvery < 1 {
		c.RefitEvery = 8
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.LagWatermark < 1 {
		c.LagWatermark = c.QueueDepth / 2
	}
	if c.BatchSize < 1 {
		c.BatchSize = 16
	}
	if c.RefitWorkers < 1 {
		c.RefitWorkers = parallel.Workers()
	}
	if c.MaxBatchRecords < 1 {
		c.MaxBatchRecords = 10000
	}
	if c.MaxBatchBytes < 1 {
		c.MaxBatchBytes = 8 << 20
	}
	if c.TraceCapacity < 1 {
		c.TraceCapacity = 64
	}
	if c.AccuracyWindow < 1 {
		c.AccuracyWindow = 512
	}
	if c.FullRefitEvery < 1 {
		c.FullRefitEvery = 8
	}
	if c.DriftRatio <= 0 {
		c.DriftRatio = 4
	}
	if c.PromoWindow < 1 {
		c.PromoWindow = 64
	}
	if c.PromoMinSamples < 1 {
		c.PromoMinSamples = 16
	}
	if c.PromoMargin <= 0 {
		c.PromoMargin = 0.05
	}
	return c
}

// FitFunc is the per-target refit function the scheduler invokes: window
// and all-time total come from the state store, gen from the registry's
// generation counter. Exposed so Config.WrapFit can interpose on it.
type FitFunc func(as astopo.AS, window []trace.Attack, total uint64, gen uint64, cfg Config) (*TargetModels, error)

// Pipeline stage names: span names in /debug/traces and the label values
// of the ddosd_stage_seconds histograms.
const (
	StageIngest    = "ingest"    // one /ingest request, decode to response
	StageAppend    = "append"    // shard-window append in the state store
	StageDetect    = "detect"    // streaming detector evaluation under the shard lock
	StageWAL       = "wal"       // write-ahead-log append before the ack
	StageSchedule  = "schedule"  // refit-mark enqueue
	StageScore     = "score"     // online accuracy scoring of the arrival
	StageRefit     = "refit"     // one scheduler batch, fits through publish
	StageFit       = "fit"       // one target's model refit
	StagePublish   = "publish"   // registry snapshot swap
	StageForecast  = "forecast"  // one /forecast request
	StageProxy     = "proxy"     // cluster router forwarding to the owner node
	StageReplicate = "replicate" // one replication pass: follower poll plus owner WAL ship
)

// Accuracy model-kind labels (ddosd_accuracy_*{model="..."}).
const (
	ModelTemporal   = "temporal"
	ModelSpatial    = "spatial"
	ModelST         = "st" // the CART tree when engaged, component composition otherwise
	ModelAlwaysSame = "always_same"
	ModelAlwaysMean = "always_mean"
)

func accuracyModels() []string {
	return []string{ModelTemporal, ModelSpatial, ModelST, ModelAlwaysSame, ModelAlwaysMean}
}

// telemetry bundles the instruments every layer updates.
type telemetry struct {
	reg *metrics.Registry

	ingestRecords  *metrics.Counter
	ingestDups     *metrics.Counter
	ingestShed     *metrics.Counter
	ingestSeconds  *metrics.Histogram
	forecasts      *metrics.Counter
	forecastMisses *metrics.Counter
	forecastSecs   *metrics.Histogram
	refitsDone     *metrics.Counter
	refitErrors    *metrics.Counter
	refitsDropped  *metrics.Counter
	refitSeconds   *metrics.Histogram
	refitLag       *metrics.Gauge
	targetsKnown   *metrics.Gauge
	targetsServed  *metrics.Gauge
	targetsEvicted *metrics.Counter
	traceDropped   *metrics.Counter

	// Online model-layer instruments (DESIGN.md §15): incremental-refit
	// volume, full refits by the reason they ran, full refits that searched
	// the NAR topology, and champion promotions by the kind promoted to.
	refitIncremental *metrics.Counter
	refitFull        *metrics.CounterVec
	refitSearches    *metrics.Counter
	promotions       *metrics.CounterVec

	// Freshness instruments (DESIGN.md §7): how long the oldest record a
	// publish newly covers waited for it, and the marks the staleness
	// deadline made.
	staleness     *metrics.Histogram
	refitDeadline *metrics.Counter

	// stageSecs splits pipeline latency by stage; stages caches the
	// children so the ingest hot path skips the vec lookup.
	stageSecs *metrics.HistogramVec
	stages    map[string]*metrics.Histogram

	// Write-ahead-log instruments (ddosd_wal_*). Registered always so the
	// series exist from boot; they stay zero when no WAL is attached.
	walAppendSecs   *metrics.Histogram
	walAppends      *metrics.Counter
	walAppendErrors *metrics.Counter
	walBytes        *metrics.Counter
	walSegments     *metrics.Gauge
	walActiveBytes  *metrics.Gauge
	walDiskBytes    *metrics.Gauge
	walReplayed     *metrics.Counter
	walReplayDups   *metrics.Counter
	walTruncations  *metrics.Counter
	walCheckpoints  *metrics.Counter
	walCompacted    *metrics.Counter
	walFailed       *metrics.Gauge

	// Streaming-detector instruments (ddosd_detect_*). Registered always
	// so the series exist from boot; they stay zero with detection off.
	detRecords    *metrics.Counter
	detStale      *metrics.Counter
	detAlerts     *metrics.CounterVec
	detClears     *metrics.CounterVec
	detActive     *metrics.Gauge
	detAlertsRate *metrics.Counter // cached {kind="rate"} children: the
	detAlertsEnt  *metrics.Counter // OnAlert hook runs under a shard lock
	detClearsRate *metrics.Counter
	detClearsEnt  *metrics.Counter

	// Online accuracy gauges, one child per model kind.
	accMagErr  *metrics.FGaugeVec
	accDurErr  *metrics.FGaugeVec
	accHitRate *metrics.FGaugeVec
	accSamples *metrics.FGaugeVec
}

func newTelemetry(stageBuckets []float64) *telemetry {
	r := metrics.NewRegistry()
	t := &telemetry{
		reg:            r,
		ingestRecords:  r.Counter("ddosd_ingest_records_total", "Records accepted into the state store."),
		ingestDups:     r.Counter("ddosd_ingest_duplicates_total", "Records dropped as duplicates of a windowed attack ID."),
		ingestShed:     r.Counter("ddosd_ingest_shed_total", "Ingest requests rejected with 429 under refit backlog."),
		ingestSeconds:  r.Histogram("ddosd_ingest_seconds", "Ingest request latency.", nil),
		forecasts:      r.Counter("ddosd_forecasts_total", "Forecasts served."),
		forecastMisses: r.Counter("ddosd_forecast_misses_total", "Forecast requests for unknown or warming-up targets."),
		forecastSecs:   r.Histogram("ddosd_forecast_seconds", "Forecast request latency.", nil),
		refitsDone:     r.Counter("ddosd_refits_total", "Completed target refits."),
		refitErrors:    r.Counter("ddosd_refit_errors_total", "Refits skipped (window not ready or fit failed)."),
		refitsDropped:  r.Counter("ddosd_refits_dropped_total", "Refit marks dropped on a full queue."),
		refitSeconds:   r.Histogram("ddosd_refit_seconds", "Per-target refit latency.", nil),
		refitLag:       r.Gauge("ddosd_refit_lag", "Refit backlog: queued plus in-flight targets."),
		targetsKnown:   r.Gauge("ddosd_targets_known", "Targets present in the state store."),
		targetsServed:  r.Gauge("ddosd_targets_served", "Targets with published models."),
		targetsEvicted: r.Counter("ddosd_targets_evicted_total", "Targets evicted from the state store under -max-targets."),
		refitIncremental: r.Counter("ddosd_refit_incremental_total",
			"Refits that took the incremental fold-in path instead of a full re-estimation."),
		refitFull: r.CounterVec("ddosd_refit_full_total",
			"Refits that ran as a full re-estimation, by why the incremental path did not run (first_fit, incremental_off, cap, tail, out_of_order, family_changed, fold_error, drift_temporal_<series>, drift_spatial_<series>).", "reason"),
		staleness: r.Histogram("ddosd_forecast_staleness_seconds",
			"Per published target: publish time minus the arrival of the oldest record its refit read that no earlier refit had read.", nil),
		refitDeadline: r.Counter("ddosd_refit_deadline_total",
			"Targets the staleness deadline queued for refit that were not already marked."),
		refitSearches: r.Counter("ddosd_refit_searches_total",
			"Full refits that grid-searched the NAR delays and hidden nodes instead of carrying the previous generation's topology (first fits included)."),
		promotions: r.CounterVec("ddosd_model_promotions_total",
			"Champion/challenger promotions, by the model kind promoted to.", "kind"),
		traceDropped: r.Counter("ddosd_trace_dropped_total", "Root spans evicted from the trace ring before any /debug/traces read."),
		stageSecs: r.HistogramVec("ddosd_stage_seconds",
			"Pipeline latency by stage (ingest, append, detect, wal, schedule, score, refit, fit, publish, forecast, proxy, replicate). The append, detect, wal, score and schedule stages observe once per ingest call: per-record cost is the stage sum divided by ddosd_ingest_records_total + ddosd_ingest_duplicates_total.",
			"stage", stageBuckets),
		accMagErr: r.FGaugeVec("ddosd_accuracy_magnitude_relative_error",
			"Windowed mean relative error of the predicted attack magnitude, per model.", "model"),
		accDurErr: r.FGaugeVec("ddosd_accuracy_duration_relative_error",
			"Windowed mean relative error of the predicted attack duration, per model.", "model"),
		accHitRate: r.FGaugeVec("ddosd_accuracy_timestamp_hit_rate",
			"Windowed rate of predicted (day, hour) landing within tolerance, per model.", "model"),
		accSamples: r.FGaugeVec("ddosd_accuracy_samples",
			"All-time scored arrivals, per model.", "model"),
		walAppendSecs:   r.Histogram("ddosd_wal_append_seconds", "WAL append latency per ingest call (framing plus the sync policy's cost).", nil),
		walAppends:      r.Counter("ddosd_wal_appends_total", "Records appended to the write-ahead log."),
		walAppendErrors: r.Counter("ddosd_wal_append_errors_total", "WAL appends that failed (the ingest was not acked durable)."),
		walBytes:        r.Counter("ddosd_wal_appended_bytes_total", "Frame bytes appended to the write-ahead log."),
		walSegments:     r.Gauge("ddosd_wal_segments", "WAL segment files on disk (sealed plus active)."),
		walActiveBytes:  r.Gauge("ddosd_wal_active_segment_bytes", "Bytes in the active WAL segment."),
		walDiskBytes:    r.Gauge("ddosd_wal_disk_bytes", "Total WAL bytes on disk (sealed segments plus active), refreshed at scrape."),
		walReplayed:     r.Counter("ddosd_wal_replayed_records_total", "Records replayed into the store from the WAL at boot."),
		walReplayDups:   r.Counter("ddosd_wal_replay_duplicates_total", "Replayed records dropped as duplicates (checkpoint overlap)."),
		walTruncations:  r.Counter("ddosd_wal_replay_truncated_total", "Boot replays that stopped at a torn or corrupt frame."),
		walCheckpoints:  r.Counter("ddosd_wal_checkpoints_total", "Durable store checkpoints written."),
		walCompacted:    r.Counter("ddosd_wal_compacted_segments_total", "WAL segments removed by checkpoint compaction."),
		walFailed:       r.Gauge("ddosd_wal_failed", "1 while the attached WAL is poisoned by a failed fsync: ingest answers 500 and /healthz 503 until restart."),
		detRecords:      r.Counter("ddosd_detect_records_total", "Records evaluated by the streaming detection tier."),
		detStale:        r.Counter("ddosd_detect_stale_records_total", "Detector records older than the ring coverage behind the target watermark (outside every window)."),
		detAlerts:       r.CounterVec("ddosd_detect_alerts_total", "Detector alerts raised, per kind.", "kind"),
		detClears:       r.CounterVec("ddosd_detect_clears_total", "Detector alerts cleared (hysteresis), per kind.", "kind"),
		detActive:       r.Gauge("ddosd_detect_active_alerts", "Detector alerts currently active across all targets."),
	}
	t.detAlertsRate = t.detAlerts.With(string(detect.KindRate))
	t.detAlertsEnt = t.detAlerts.With(string(detect.KindEntropy))
	t.detClearsRate = t.detClears.With(string(detect.KindRate))
	t.detClearsEnt = t.detClears.With(string(detect.KindEntropy))
	// Pre-create every stage child: the series exist from boot (dashboards
	// need not wait for traffic) and the hot path reads a plain map.
	t.stages = make(map[string]*metrics.Histogram)
	for _, stage := range []string{
		StageIngest, StageAppend, StageDetect, StageWAL, StageSchedule, StageScore,
		StageRefit, StageFit, StagePublish, StageForecast, StageProxy, StageReplicate,
	} {
		t.stages[stage] = t.stageSecs.With(stage)
	}
	for _, model := range accuracyModels() {
		t.accMagErr.With(model)
		t.accDurErr.With(model)
		t.accHitRate.With(model)
		t.accSamples.With(model)
	}
	for _, kind := range promoKinds() {
		t.promotions.With(kind)
	}
	for _, reason := range fullReasons() {
		t.refitFull.With(reason)
	}
	return t
}

// observeStage is the tracer's per-span hook: span names are stage names.
func (t *telemetry) observeStage(stage string, seconds float64) {
	if h := t.stages[stage]; h != nil {
		h.Observe(seconds)
	}
}

// onDetectAlert mirrors one detector raise/clear into the counters. It
// runs on the ingest path under a shard lock (transitions are rare), so
// it touches only pre-created children and atomics.
func (t *telemetry) onDetectAlert(a detect.Alert, active int64) {
	switch {
	case a.Cleared && a.Kind == detect.KindRate:
		t.detClearsRate.Inc()
	case a.Cleared:
		t.detClearsEnt.Inc()
	case a.Kind == detect.KindRate:
		t.detAlertsRate.Inc()
	default:
		t.detAlertsEnt.Inc()
	}
	t.detActive.Set(active)
}

// onScore mirrors a model's refreshed accuracy summary into the gauges.
func (t *telemetry) onScore(model string, s obs.Summary) {
	t.accMagErr.With(model).Set(s.Magnitude.MeanRelErr)
	t.accDurErr.With(model).Set(s.Duration.MeanRelErr)
	t.accHitRate.With(model).Set(s.Timestamp.Rate)
	t.accSamples.With(model).Set(float64(s.Samples))
}

// Service wires the store, registry, and scheduler together.
type Service struct {
	cfg    Config
	store  *Store
	reg    *Registry
	sched  *scheduler
	tel    *telemetry
	tracer *obs.Tracer
	acc    *obs.Accuracy
	promo  *promoTracker
	start  time.Time

	// Durability layer (durability.go). walRef is nil until AttachWAL;
	// walMu is the checkpoint barrier: ingest holds it shared across the
	// store-insert + WAL-append pair, CheckpointWAL holds it exclusively
	// across the segment rotation + store snapshot, so every record lands
	// on exactly one side of the checkpoint cut. ckptMu serializes
	// checkpoint writers (the background compactor vs shutdown).
	walRef    atomic.Pointer[wal.WAL]
	walMu     sync.RWMutex
	ckptMu    sync.Mutex
	walLogger *slog.Logger
	walStop   chan struct{}
	walDone   chan struct{}

	// clusterInfo feeds the /healthz cluster section (SetClusterInfo).
	clusterInfo clusterInfoHook

	// watchdog is the SLO-breach flight recorder (StartWatchdog); nil
	// until started.
	watchdog atomic.Pointer[obs.Watchdog]
}

// New builds and starts a service (the refit scheduler goroutine runs
// until Close).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	tel := newTelemetry(cfg.StageBuckets)
	tracer := obs.NewTracer(obs.TracerConfig{
		Capacity: cfg.TraceCapacity,
		Slow:     cfg.TraceSlow,
		Observe:  tel.observeStage,
		OnDrop:   tel.traceDropped.Inc,
	})
	acc := obs.NewAccuracy(obs.AccuracyConfig{
		Window:  cfg.AccuracyWindow,
		OnScore: tel.onScore,
	})
	for _, model := range accuracyModels() {
		acc.Model(model)
	}
	store := NewStore(cfg.Shards, cfg.Window)
	if cfg.Detect != nil {
		dcfg := *cfg.Detect
		userHook := dcfg.OnAlert
		var det *detect.Detector
		dcfg.OnAlert = func(a detect.Alert) {
			tel.onDetectAlert(a, det.Active())
			if userHook != nil {
				userHook(a)
			}
		}
		// det is assigned before any Observe can fire the hook: the store
		// takes no traffic until New returns.
		det = detect.New(dcfg)
		store.AttachDetector(det)
	}
	reg := NewRegistry()
	promo := newPromoTracker(cfg.PromoWindow)
	if cfg.MaxTargets > 0 {
		store.SetMaxTargets(cfg.MaxTargets, func(as astopo.AS) {
			reg.Drop(as)
			promo.Drop(as)
			tel.targetsEvicted.Inc()
		})
	}
	svc := &Service{
		cfg:    cfg,
		store:  store,
		reg:    reg,
		sched:  newScheduler(store, reg, promo, cfg, tel, tracer),
		tel:    tel,
		tracer: tracer,
		acc:    acc,
		promo:  promo,
		start:  time.Now(),
	}
	// Runtime self-telemetry and WAL disk gauges refresh at scrape time —
	// registered here (not in newTelemetry) so the golden exposition test,
	// which drives newTelemetry directly, stays machine-independent. The
	// refit-lag gauge is also derived at scrape (the queue and in-flight
	// counters move concurrently; sampling once here is race-free and
	// always consistent with what the scheduler would report).
	obs.RegisterRuntime(tel.reg)
	tel.reg.OnScrape(svc.refreshWALGauges)
	tel.reg.OnScrape(func() { tel.refitLag.Set(svc.sched.lag.Load()) })
	return svc
}

// Close stops the background checkpointer (if a WAL is attached) and the
// refit scheduler (in-flight batch completes first). It does not close
// the WAL itself — the owner that passed it to AttachWAL does that.
func (s *Service) Close() {
	if w := s.watchdog.Load(); w != nil {
		w.Close()
	}
	s.DetachWAL()
	s.sched.Stop()
}

// Registry exposes the model registry (snapshot persistence, direct
// forecasts).
func (s *Service) Registry() *Registry { return s.reg }

// Store exposes the state store (introspection).
func (s *Service) Store() *Store { return s.store }

// Tracer exposes the pipeline tracer (/debug/traces).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Accuracy exposes the online forecast-accuracy tracker (/accuracy).
func (s *Service) Accuracy() *obs.Accuracy { return s.acc }

// Flush waits for the refit backlog to drain (tests, shutdown snapshots).
func (s *Service) Flush() { s.sched.Flush() }

// ErrShedding is returned by IngestBatch while the refit backlog exceeds
// the watermark; the HTTP layer maps it to 429.
var ErrShedding = errors.New("serve: refit backlog over watermark, shedding ingest")

// maxDurationSec bounds a record's duration. No attack lasts a year, and
// the bound keeps every sum and square the models take of durations
// finite: a NaN, infinite or huge duration would leave the store's
// checkpoint or the target's forecast unencodable.
const maxDurationSec = 365 * 24 * 3600

// ValidateRecord rejects records the models cannot use.
func ValidateRecord(a *trace.Attack) error {
	switch {
	case a.ID == 0:
		return errors.New("serve: record missing id")
	case a.Family == "":
		return errors.New("serve: record missing family")
	case a.Start.IsZero():
		return errors.New("serve: record missing start")
	case !(a.DurationSec >= 0 && a.DurationSec <= maxDurationSec): // NaN fails both
		return errors.New("serve: duration negative, not finite, or over a year")
	case a.TargetAS == 0:
		return errors.New("serve: record missing target_as")
	}
	return nil
}

// ingestStageTimes is one ingest call's wall time per pipeline stage; the
// HTTP layer attaches them to the request's trace tree.
type ingestStageTimes struct {
	Append, Detect, WAL, Score, Schedule time.Duration
}

// scoreArrival folds one in-order arrival into the accuracy tracker: the
// two history baselines always, the model kinds when a forecast was
// published before the arrival. prev summarizes the target's window as it
// stood before the append — exactly the baselines' knowledge. Uses only
// cached predictions and stack values, so the ingest hot path stays
// allocation-free (pinned by BenchmarkIngestScoring).
func (s *Service) scoreArrival(tm *TargetModels, published bool, prev PrevStats, a *trace.Attack) {
	out := obs.Outcome{
		Magnitude:   float64(a.Magnitude()),
		DurationSec: a.DurationSec,
		Hour:        float64(a.Hour()),
		Day:         float64(a.Day()),
	}
	s.acc.Score(ModelAlwaysSame, obs.Prediction{
		Magnitude:   prev.LastMag,
		DurationSec: prev.LastDur,
		Hour:        float64(prev.LastStart.Hour()),
		Day:         float64(prev.LastStart.Day()),
	}, out)
	s.acc.Score(ModelAlwaysMean, obs.Prediction{
		Magnitude:   prev.MeanMag,
		DurationSec: prev.MeanDur,
		Hour:        prev.MeanHour,
		Day:         prev.MeanDay,
	}, out)
	if !published || tm == nil {
		return
	}
	p := tm.preds()
	nan := math.NaN()
	tmpPred := obs.Prediction{Magnitude: p.TmpMag, DurationSec: nan, Hour: p.TmpHour, Day: p.TmpDay}
	spaPred := obs.Prediction{Magnitude: nan, DurationSec: p.SpaDur, Hour: p.SpaHour, Day: p.SpaDay}
	stPred := obs.Prediction{Magnitude: p.STMag, DurationSec: p.STDur, Hour: p.STHour, Day: p.STDay}
	s.acc.Score(ModelTemporal, tmpPred, out)
	s.acc.Score(ModelSpatial, spaPred, out)
	s.acc.Score(ModelST, stPred, out)
	// The same arrival judges the per-target champion contest: identical
	// predictions, but in this target's own window so promotion decisions
	// reflect local (not fleet-wide) accuracy.
	pacc, created := s.promo.ensure(a.TargetAS)
	pacc.Score(ModelTemporal, tmpPred, out)
	pacc.Score(ModelSpatial, spaPred, out)
	pacc.Score(ModelST, stPred, out)
	// ensure can race the eviction hook: the store removes the target
	// before onEvict drops its tracker, so a create that lost that race
	// always observes the target gone here and removes itself — otherwise
	// the ghost window would leak until the AS is re-ingested (evicted
	// targets get no refits). Checked only on creation, so the steady-state
	// scoring path takes no extra shard lock.
	if created && !s.store.Known(a.TargetAS) {
		s.promo.Drop(a.TargetAS)
	}
}

// Forecast serves the target's published forecast.
func (s *Service) Forecast(as astopo.AS) (*Forecast, error) {
	return s.reg.Forecast(as)
}

// WarmStart bulk-ingests a dataset (boot-time backfill) through
// IngestBatch, MaxBatchRecords records per call, and returns once every
// target holding at least MinWindow records has published. A record that
// fails validation is reported by its index in ds; the records before it
// stay applied.
func (s *Service) WarmStart(ds *trace.Dataset) (int, error) {
	n := 0
	var chunk []trace.Attack // a copy: ingest writes detector verdicts
	for lo := 0; lo < len(ds.Attacks); lo += s.cfg.MaxBatchRecords {
		chunk = append(chunk[:0], ds.Attacks[lo:min(lo+s.cfg.MaxBatchRecords, len(ds.Attacks))]...)
		res, err := s.IngestBatch(chunk, nil)
		if errors.Is(err, ErrShedding) {
			s.sched.Flush()
			res, err = s.IngestBatch(chunk, nil)
		}
		n += res.Ingested
		var bad *BatchRecordError
		if errors.As(err, &bad) {
			return n, fmt.Errorf("serve: warm start record %d: %w", lo+bad.Index-1, bad.Err)
		}
		if err != nil {
			return n, fmt.Errorf("serve: warm start: %w", err)
		}
	}
	// Ingest drops marks on a full queue; queue the ready targets still
	// unpublished with marks that wait for room.
	s.sched.Flush()
	var unpublished []astopo.AS
	for _, as := range s.store.Targets() {
		if _, ok := s.reg.Lookup(as); !ok {
			unpublished = append(unpublished, as)
		}
	}
	s.requeueReady(unpublished)
	s.sched.Flush()
	return n, nil
}
