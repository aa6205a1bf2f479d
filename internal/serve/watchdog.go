package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// SLO watchdog wiring: the serve layer turns its own telemetry into the
// obs.Watchdog's rules and snapshot producers (DESIGN.md §14). Rate-style
// objectives (shed rate, alert storms) are computed as deltas between
// watchdog evaluations, not lifetime ratios — a node that shed heavily an
// hour ago but is healthy now must not keep tripping the recorder.

// WatchdogConfig selects the monitored SLOs and the bundle ring. The
// zero value for any threshold disables that rule (ShedRate uses a
// negative value: a 0.0 shed-rate threshold — "any shedding breaches" —
// is legitimate). The wal_failed rule, a WAL poisoned by a failed fsync,
// is always on.
type WatchdogConfig struct {
	// Dir is the bundle ring directory. Required.
	Dir string
	// Interval, Cooldown, MaxBundles, CPUProfile tune the recorder
	// (obs.WatchdogConfig defaults apply when zero).
	Interval   time.Duration
	Cooldown   time.Duration
	MaxBundles int
	CPUProfile time.Duration

	// IngestP99 breaches when the ingest request p99 exceeds it. 0 = off.
	IngestP99 time.Duration
	// ShedRate breaches when the fraction of ingest requests shed since
	// the last evaluation exceeds it. Negative = off.
	ShedRate float64
	// ReplLagSegs breaches when replication lag (total segments behind
	// across owned peers, via ReplLag) exceeds it. 0 = off.
	ReplLagSegs int
	// AlertRatePerMin breaches when the detector raises alerts faster
	// than this per minute, measured between evaluations. 0 = off.
	AlertRatePerMin float64

	// ReplLag, when non-nil, reports replication lag in segments (the
	// cluster node's Lag). Required for ReplLagSegs.
	ReplLag func() int
	// Statusz, when non-nil, is marshaled into the bundle's statusz.json
	// (the cluster's fleet status, or the node's own NodeStatus).
	Statusz func() any
	// LogLines, when non-nil, supplies the bundle's log.txt (obs.LogRing).
	LogLines func() []string

	Logger *slog.Logger
}

// StartWatchdog builds and starts the SLO-breach flight recorder. Call
// once, after cluster wiring (so ReplLag and Statusz see the node);
// Close stops it.
func (s *Service) StartWatchdog(cfg WatchdogConfig) (*obs.Watchdog, error) {
	if s.watchdog.Load() != nil {
		return nil, fmt.Errorf("serve: watchdog already started")
	}
	// wal_failed is always on: a poisoned WAL stops every durable ack.
	rules := []obs.WatchdogRule{{
		Name: "wal_failed",
		Value: func() float64 {
			if s.walErr() != nil {
				return 1
			}
			return 0
		},
	}}
	if cfg.IngestP99 > 0 {
		rules = append(rules, obs.WatchdogRule{
			Name:      "ingest_p99_seconds",
			Threshold: cfg.IngestP99.Seconds(),
			Value:     func() float64 { return s.tel.ingestSeconds.Quantile(0.99) },
		})
	}
	if cfg.ShedRate >= 0 {
		rules = append(rules, obs.WatchdogRule{
			Name:      "ingest_shed_rate",
			Threshold: cfg.ShedRate,
			Value:     s.shedRateProbe(),
		})
	}
	if cfg.ReplLagSegs > 0 && cfg.ReplLag != nil {
		rules = append(rules, obs.WatchdogRule{
			Name:      "replication_lag_segments",
			Threshold: float64(cfg.ReplLagSegs),
			Value:     func() float64 { return float64(cfg.ReplLag()) },
		})
	}
	if cfg.AlertRatePerMin > 0 {
		rules = append(rules, obs.WatchdogRule{
			Name:      "detect_alerts_per_minute",
			Threshold: cfg.AlertRatePerMin,
			Value:     s.alertRateProbe(),
		})
	}
	snapshots := map[string]func() ([]byte, error){
		"spans.json": func() ([]byte, error) {
			return json.MarshalIndent(obs.TracesSnapshot{
				Capacity: s.tracer.Capacity(),
				SlowSec:  s.tracer.SlowThreshold().Seconds(),
				Traces:   s.tracer.Snapshot(),
			}, "", "  ")
		},
		"metrics.prom": func() ([]byte, error) {
			var sb strings.Builder
			s.tel.reg.WriteText(&sb)
			return []byte(sb.String()), nil
		},
	}
	if cfg.Statusz != nil {
		snapshots["statusz.json"] = func() ([]byte, error) {
			return json.MarshalIndent(cfg.Statusz(), "", "  ")
		}
	} else {
		snapshots["statusz.json"] = func() ([]byte, error) {
			st := s.NodeStatus()
			return json.MarshalIndent(&st, "", "  ")
		}
	}
	if cfg.LogLines != nil {
		snapshots["log.txt"] = func() ([]byte, error) {
			return []byte(strings.Join(cfg.LogLines(), "\n") + "\n"), nil
		}
	}
	wd, err := obs.NewWatchdog(obs.WatchdogConfig{
		Dir:        cfg.Dir,
		Interval:   cfg.Interval,
		Cooldown:   cfg.Cooldown,
		MaxBundles: cfg.MaxBundles,
		CPUProfile: cfg.CPUProfile,
		Rules:      rules,
		Snapshots:  snapshots,
		Logger:     cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	s.watchdog.Store(wd)
	wd.Start()
	return wd, nil
}

// shedRateProbe returns a delta-based shed-rate probe: the fraction of
// ingest requests answered 429 since the previous call.
func (s *Service) shedRateProbe() func() float64 {
	var mu sync.Mutex
	var lastShed, lastTotal uint64
	return func() float64 {
		shed := s.tel.ingestShed.Value()
		total := s.tel.ingestSeconds.Count()
		mu.Lock()
		dShed, dTotal := shed-lastShed, total-lastTotal
		lastShed, lastTotal = shed, total
		mu.Unlock()
		if dTotal == 0 {
			return 0
		}
		return float64(dShed) / float64(dTotal)
	}
}

// alertRateProbe returns a delta-based alert-storm probe: detector
// raises per minute since the previous call.
func (s *Service) alertRateProbe() func() float64 {
	var mu sync.Mutex
	var lastRaised uint64
	last := time.Now()
	return func() float64 {
		raised := s.tel.detAlertsRate.Value() + s.tel.detAlertsEnt.Value()
		now := time.Now()
		mu.Lock()
		d := raised - lastRaised
		mins := now.Sub(last).Minutes()
		lastRaised, last = raised, now
		mu.Unlock()
		if mins <= 0 {
			return 0
		}
		return float64(d) / mins
	}
}

// Watchdog exposes the running flight recorder (nil when not started).
func (s *Service) Watchdog() *obs.Watchdog { return s.watchdog.Load() }
