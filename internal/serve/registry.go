package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
)

// Registry serves forecasts lock-free from an immutable snapshot. The
// snapshot — a map from target AS to that target's fitted models — is
// published by atomic pointer swap: readers load the pointer once and see
// a consistent world for the whole request, while each refit builds its
// target's new TargetModels off to the side and swaps it in as soon as its
// fit ends (the swap copies the map, so its cost grows with the target
// count; BenchmarkRegistryPublish). Models inside a published snapshot are
// never mutated (prediction methods on core.Temporal/Spatial/Spatiotemporal
// are read-only), so no reader-side locking exists anywhere on the
// forecast path.
type Registry struct {
	snap atomic.Pointer[snapshot]
	mu   sync.Mutex // serializes publishers (copy-on-write swap)
	gen  atomic.Uint64
}

type snapshot struct {
	version uint64
	models  map[astopo.AS]*TargetModels
}

// TargetModels is one target's immutable fitted-model set plus the frozen
// feature context the spatiotemporal tree needs at forecast time. All
// fields serialize through the existing core persist codecs, so a registry
// snapshot on disk is the same wire format cmd/ddospredict bundles use.
type TargetModels struct {
	AS     astopo.AS `json:"as"`
	Family string    `json:"family"` // dominant family in the fit window

	Temporal *core.Temporal       `json:"temporal"`
	Spatial  *core.Spatial        `json:"spatial"`
	ST       *core.Spatiotemporal `json:"st,omitempty"`

	// Prov records how this generation was produced (full vs incremental
	// refit, verdict filtering) and the champion composition it serves.
	Prov Provenance `json:"prov"`

	Ctx        core.STContext `json:"ctx"`
	Window     int            `json:"window"`     // records the fit consumed
	Total      uint64         `json:"total"`      // all-time ingested at fit time
	Generation uint64         `json:"generation"` // monotone fit counter
	FittedAt   time.Time      `json:"fitted_at"`

	// LastStart is the newest record Start the fit window contained — the
	// out-of-order fence for incremental refits: only records sorting
	// strictly after it can be genuinely new, so a positional tail that
	// reaches at or before it holds already-folded history and the fold-in
	// path must decline. Zero (e.g. a pre-fence snapshot) declines too.
	LastStart time.Time `json:"last_start"`

	// prefix is the spatial model stSamples fitted in the last full refit,
	// which the next carried full refit's prefix starts from. Incremental
	// generations carry it unchanged. Not serialized: a generation loaded
	// from a snapshot or checkpoint has none, so its next prefix trains
	// cold.
	prefix prefixModel

	// searched: this full refit ran the NAR grid (searchDue). Not stored.
	searched bool

	// predsReady/predsVal cache the point predictions the online accuracy
	// tracker scores. Models in a published snapshot are immutable, so
	// their forecasts are constants per generation — computing them once
	// keeps the per-arrival scoring on the ingest path allocation-free
	// (the NAR forward pass allocates its lag input, and a sync.Once
	// closure would allocate per call). Not serialized: a snapshot loaded
	// from disk recomputes lazily.
	predsReady atomic.Bool
	predsMu    sync.Mutex
	predsVal   scorePreds
}

// scorePreds is one generation's frozen point forecast per model kind:
// the temporal and spatial components and the spatiotemporal composition
// (the CART tree when engaged, component composition otherwise).
type scorePreds struct {
	TmpMag, TmpHour, TmpDay float64
	SpaDur, SpaHour, SpaDay float64
	STMag, STDur            float64
	STHour, STDay           float64
}

// preds computes (once per generation) and returns the cached score
// predictions. The fast path is one atomic load and a struct copy — no
// closure, no lock. The composition mirrors Registry.Forecast exactly —
// pinned by TestScorePredsMatchForecast.
func (tm *TargetModels) preds() scorePreds {
	if tm.predsReady.Load() {
		return tm.predsVal
	}
	tm.predsMu.Lock()
	defer tm.predsMu.Unlock()
	if !tm.predsReady.Load() {
		tm.predsVal = tm.computePreds()
		tm.predsReady.Store(true)
	}
	return tm.predsVal
}

func (tm *TargetModels) computePreds() scorePreds {
	t, s := tm.Temporal, tm.Spatial
	p := scorePreds{
		TmpMag: t.PredictMagnitude(), TmpHour: t.PredictHour(), TmpDay: t.PredictDay(),
		SpaDur: s.PredictDuration(), SpaHour: s.PredictHour(), SpaDay: s.PredictDay(),
	}
	p.STMag, p.STHour, p.STDay, p.STDur = max(0, p.TmpMag), p.TmpHour, p.TmpDay, max(0, p.SpaDur)
	if tm.ST != nil {
		f := core.STRow(t, s, tm.Ctx, tm.AS)
		p.STHour = tm.ST.PredictHour(&f)
		p.STDay = tm.ST.PredictDay(&f)
		p.STDur = max(0, tm.ST.PredictDuration(&f))
		p.STMag = max(0, tm.ST.PredictMagnitude(&f))
	}
	return p
}

// pick returns the champion kind's prediction for one measure, falling
// back to the ST composition when the champion does not predict it (NaN).
func pick(champion string, tmp, spa, st float64) float64 {
	var v float64
	switch champion {
	case ModelTemporal:
		v = tmp
	case ModelSpatial:
		v = spa
	default:
		v = st
	}
	if math.IsNaN(v) {
		return st
	}
	return v
}

// served composes the forecast actually answered to clients: per measure,
// the champion kind's prediction with ST fallback. With zero-value
// champions this is exactly the pre-promotion ST composition.
type servedPreds struct {
	Magnitude, DurationSec, Hour, Day float64
}

func (tm *TargetModels) served() servedPreds {
	p := tm.preds()
	c := tm.Prov.Champions
	nan := math.NaN()
	return servedPreds{
		Magnitude:   pick(champOr(c.Magnitude), max(0, p.TmpMag), nan, p.STMag),
		DurationSec: pick(champOr(c.Duration), nan, max(0, p.SpaDur), p.STDur),
		Hour:        pick(champOr(c.Timestamp), p.TmpHour, p.SpaHour, p.STHour),
		Day:         pick(champOr(c.Timestamp), p.TmpDay, p.SpaDay, p.STDay),
	}
}

// Forecast is one target's next-attack prediction plus provenance.
type Forecast struct {
	TargetAS        astopo.AS `json:"target_as"`
	Family          string    `json:"family"`
	SnapshotVersion uint64    `json:"snapshot_version"`
	ModelGeneration uint64    `json:"model_generation"`
	WindowSize      int       `json:"window_size"`
	Observations    uint64    `json:"observations"`
	FittedAt        time.Time `json:"fitted_at"`

	NextStart   time.Time `json:"next_start"`
	IntervalSec float64   `json:"interval_sec"`
	Hour        float64   `json:"hour"`
	Day         float64   `json:"day"`
	DurationSec float64   `json:"duration_sec"`
	Magnitude   float64   `json:"magnitude"`

	Models ForecastModels `json:"models"`

	// Provenance exposes how the serving generation was produced and which
	// champion kind answers each measure.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// ForecastModels carries the per-engine descriptors (which engine engaged,
// selected structure, observation counts).
type ForecastModels struct {
	Temporal       core.TemporalInfo        `json:"temporal"`
	Spatial        core.SpatialInfo         `json:"spatial"`
	Spatiotemporal *core.SpatiotemporalInfo `json:"spatiotemporal,omitempty"`
}

// ErrUnknownTarget is returned for targets without a published model.
var ErrUnknownTarget = errors.New("serve: no model for target")

// NewRegistry returns a registry with an empty published snapshot.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&snapshot{models: map[astopo.AS]*TargetModels{}})
	return r
}

// Version returns the published snapshot version (increments per swap).
func (r *Registry) Version() uint64 { return r.snap.Load().version }

// Size returns the number of targets in the published snapshot.
func (r *Registry) Size() int { return len(r.snap.Load().models) }

// NextGeneration returns a fresh monotone fit-generation number.
func (r *Registry) NextGeneration() uint64 { return r.gen.Add(1) }

// Targets returns every published target AS in ascending order.
func (r *Registry) Targets() []astopo.AS {
	snap := r.snap.Load()
	out := make([]astopo.AS, 0, len(snap.models))
	for as := range snap.models {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lookup returns the published models for a target.
func (r *Registry) Lookup(as astopo.AS) (*TargetModels, bool) {
	tm, ok := r.snap.Load().models[as]
	return tm, ok
}

// Forecast composes the target's next-attack forecast from its published
// models. It is the serving hot path: one atomic load, one map lookup, and
// closed-form model reads — no fitting, no locks, no mutation.
func (r *Registry) Forecast(as astopo.AS) (*Forecast, error) {
	snap := r.snap.Load()
	tm := snap.models[as]
	if tm == nil {
		return nil, fmt.Errorf("%w AS%d", ErrUnknownTarget, as)
	}
	t, s := tm.Temporal, tm.Spatial
	sp := tm.served()
	prov := tm.Prov
	prov.Champions = Champions{
		Magnitude: champOr(prov.Champions.Magnitude),
		Duration:  champOr(prov.Champions.Duration),
		Timestamp: champOr(prov.Champions.Timestamp),
	}
	fc := &Forecast{
		TargetAS:        as,
		Family:          tm.Family,
		SnapshotVersion: snap.version,
		ModelGeneration: tm.Generation,
		WindowSize:      tm.Window,
		Observations:    tm.Total,
		FittedAt:        tm.FittedAt,
		NextStart:       t.PredictNextStart(),
		IntervalSec:     max(0, t.PredictInterval()),
		Hour:            sp.Hour,
		Day:             sp.Day,
		DurationSec:     sp.DurationSec,
		Magnitude:       sp.Magnitude,
		Models: ForecastModels{
			Temporal: t.Describe(),
			Spatial:  s.Describe(),
		},
		Provenance: &prov,
	}
	if tm.ST != nil {
		info := tm.ST.Describe()
		fc.Models.Spatiotemporal = &info
	}
	return fc, nil
}

// Drop removes a target from the published snapshot (state-store eviction
// under -max-targets). No-op when the target is not published.
func (r *Registry) Drop(as astopo.AS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	if _, ok := old.models[as]; !ok {
		return
	}
	models := make(map[astopo.AS]*TargetModels, len(old.models)-1)
	for k, tm := range old.models {
		if k != as {
			models[k] = tm
		}
	}
	r.snap.Store(&snapshot{version: old.version + 1, models: models})
}

// Publish swaps a new snapshot in that carries every existing target plus
// the given batch (copy-on-write). Readers keep the old snapshot until the
// single atomic store below; nothing is ever published half-updated. A
// batch with no model (nil entries are skipped) swaps nothing, so the
// version counts only swaps that changed the snapshot.
func (r *Registry) Publish(batch []*TargetModels) {
	if !slices.ContainsFunc(batch, func(tm *TargetModels) bool { return tm != nil }) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	models := make(map[astopo.AS]*TargetModels, len(old.models)+len(batch))
	for as, tm := range old.models {
		models[as] = tm
	}
	for _, tm := range batch {
		if tm != nil {
			models[tm.AS] = tm
		}
	}
	r.snap.Store(&snapshot{version: old.version + 1, models: models})
}

// SnapshotFile is the on-disk snapshot format, targets sorted by AS so
// snapshots of the same state are byte-identical.
type SnapshotFile struct {
	Version uint64          `json:"version"`
	Targets []*TargetModels `json:"targets"`
}

// WriteSnapshot serializes the published snapshot.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	snap := r.snap.Load()
	file := SnapshotFile{Version: snap.version, Targets: make([]*TargetModels, 0, len(snap.models))}
	for _, tm := range snap.models {
		file.Targets = append(file.Targets, tm)
	}
	sort.Slice(file.Targets, func(i, j int) bool { return file.Targets[i].AS < file.Targets[j].AS })
	if err := json.NewEncoder(w).Encode(&file); err != nil {
		return fmt.Errorf("serve: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot replaces the published snapshot with one read from r2 (the
// daemon's warm-boot path; also loadable by cmd/ddospredict -snapshot).
func (r *Registry) ReadSnapshot(r2 io.Reader) error {
	file, err := DecodeSnapshot(r2)
	if err != nil {
		return err
	}
	models := make(map[astopo.AS]*TargetModels, len(file.Targets))
	var maxGen uint64
	for _, tm := range file.Targets {
		if tm.Temporal == nil || tm.Spatial == nil {
			return fmt.Errorf("serve: snapshot target AS%d missing models", tm.AS)
		}
		models[tm.AS] = tm
		if tm.Generation > maxGen {
			maxGen = tm.Generation
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		g := r.gen.Load()
		if g >= maxGen || r.gen.CompareAndSwap(g, maxGen) {
			break
		}
	}
	// A file older than the published snapshot must not replace fresher
	// in-memory models: readers (and the cluster replicator) treat version
	// as a monotone clock, so relabeling stale content under the current
	// version would make version-gated consumers skip re-sync. Keep the
	// published snapshot untouched; the generation clamp above still holds.
	if cur := r.snap.Load().version; file.Version < cur {
		return nil
	}
	r.snap.Store(&snapshot{version: file.Version, models: models})
	return nil
}

// DecodeSnapshot parses a snapshot file without publishing it (used by
// cmd/ddospredict to forecast straight from a ddosd snapshot).
func DecodeSnapshot(r io.Reader) (*SnapshotFile, error) {
	var file SnapshotFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("serve: read snapshot: %w", err)
	}
	return &file, nil
}
