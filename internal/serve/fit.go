package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arima"
	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/trace"
)

// Per-target refit: turn a rolling window of attacks into a fresh
// TargetModels. The spatiotemporal tree trains on rows from core.WalkStep,
// the walk-forward step the offline evaluation (eval.collectSamples) loops
// over too, and forecasts from core.STRow over the context frozen from the
// fit window, so training and forecast rows run the same code. The
// component models are then refitted on the full window for serving.

// fitTarget builds a target's models from its window. prev is the target's
// published generation (nil before its first fit). A carried full refit
// (searchDue false) trains prev's NAR topology and starts every network
// from prev's, whatever made the refit full: the window networks from
// prev.Spatial and stSamples' prefix networks from prev.prefix. The
// caller provides the fit generation and the all-time ingest total for
// provenance. Windows shorter than cfg.MinWindow return an error (the
// target is not ready).
func fitTarget(prev *TargetModels, as astopo.AS, window []trace.Attack, total uint64, gen uint64, cfg Config) (*TargetModels, error) {
	if len(window) < cfg.MinWindow {
		return nil, fmt.Errorf("serve: AS%d window %d below minimum %d", as, len(window), cfg.MinWindow)
	}
	fitWin, filtered := filterVerdicts(window, cfg)
	family := dominantFamily(fitWin)

	// A search refit leaves the topology and the starts zero, so the NAR
	// grid runs and every network trains cold; a carry refit trains the
	// previous generation's topology from its weights.
	var topo core.SpatialTopology
	var start core.SpatialStart
	var prefixFrom prefixModel
	prov := Provenance{Refit: refitFull, FilteredRecords: filtered, SearchWindow: len(fitWin)}
	searched := searchDue(prev, len(fitWin))
	if !searched {
		topo = prev.Spatial.Topology()
		start = prev.Spatial.Start(warmEpochs)
		prefixFrom = prev.prefix
		prov.SearchWindow = prev.Prov.SearchWindow
	}

	// Spatiotemporal stage first: it fits throwaway prefix models, and a
	// failure here only disables the tree, never the whole target. Its
	// prefix spatial fit runs the grid for every series topo leaves zero,
	// and the window fit below reuses the prefix's choice, so the topology
	// never sees the records the walk labels.
	st, prefix := fitSTModels(as, fitWin, topo, prefixFrom, cfg)
	if prefix.sm != nil && prefix.sm.Topology() != (core.SpatialTopology{}) {
		topo = prefix.sm.Topology()
	}

	tm, err := core.FitTemporal(family, fitWin, cfg.Temporal)
	if err != nil {
		return nil, fmt.Errorf("serve: AS%d temporal: %w", as, err)
	}
	sm, err := core.FitSpatial(as, fitWin, spatialCfg(as, cfg), topo, start)
	if err != nil {
		return nil, fmt.Errorf("serve: AS%d spatial: %w", as, err)
	}
	return &TargetModels{
		AS:         as,
		Family:     family,
		Temporal:   tm,
		Spatial:    sm,
		ST:         st,
		Ctx:        core.ContextOf(fitWin),
		Window:     len(window),
		Total:      total,
		Generation: gen,
		FittedAt:   time.Now().UTC(),
		LastStart:  window[len(window)-1].Start,
		Prov:       prov,
		prefix:     prefix,
		searched:   searched,
	}, nil
}

// searchDue reports whether a full refit over a fit window of n records
// runs the NAR delays×hidden grid instead of carrying prev's topology: on
// the target's first fit and once its fit window has at least doubled
// since the last search. A generation without a recorded search window
// (a snapshot from before the policy) is due.
func searchDue(prev *TargetModels, n int) bool {
	return prev == nil || n >= 2*prev.Prov.SearchWindow
}

// filterVerdicts drops detector-alerted records from a fit window when the
// verdict filter is on (-refit-verdict-filter): the baseline-regime models
// should not learn burst traffic the detection tier already flagged as
// anomalous. The filter is conservative — it only engages when enough
// clean records remain (at least MinWindow and at least half the window),
// otherwise the full window fits as before. Returns the window to fit on
// and how many records were excluded.
func filterVerdicts(window []trace.Attack, cfg Config) ([]trace.Attack, int) {
	if !cfg.RefitVerdictFilter {
		return window, 0
	}
	clean := 0
	for i := range window {
		if window[i].Verdict == 0 {
			clean++
		}
	}
	if clean == len(window) || clean < cfg.MinWindow || clean < len(window)/2 {
		return window, 0
	}
	out := make([]trace.Attack, 0, clean)
	for i := range window {
		if window[i].Verdict == 0 {
			out = append(out, window[i])
		}
	}
	return out, len(window) - clean
}

// warmEpochs is the per-series RPROP budget of a network that starts
// from the previous generation's weights: an incremental refit folding a
// short tail in, and a carried full refit retraining on its whole window
// (capped there at Config.Spatial.Train.Epochs, -nar-epochs). First fits
// and searches train cold for Config.Spatial.Train.Epochs.
const warmEpochs = 40

// errNotEligible marks windows the incremental path must decline (the
// scheduler then falls back to a full refit without counting an error).
var errNotEligible = errors.New("serve: window not eligible for incremental refit")

// Why a refit ran as a full re-estimation: the reason label of
// ddosd_refit_full_total. Drift aborts add drift_temporal_<series> and
// drift_spatial_<series> (fullReasons).
const (
	fullFirstFit       = "first_fit"       // no published generation yet
	fullIncrementalOff = "incremental_off" // Config.IncrementalRefit is off
	fullCap            = "cap"             // FullRefitEvery generations since the last full refit
	fullTail           = "tail"            // no new records, a tail longer than half the window, or a tail the verdict filter emptied
	fullOutOfOrder     = "out_of_order"    // the tail does not sort after the previous fit's newest record
	fullFamilyChanged  = "family_changed"  // the window's dominant family changed
	fullFoldError      = "fold_error"      // a fold-in failed for a reason other than drift
)

// fullReasons lists every reason label, so each child exists from boot.
func fullReasons() []string {
	r := []string{fullFirstFit, fullIncrementalOff, fullCap, fullTail, fullOutOfOrder, fullFamilyChanged, fullFoldError}
	for _, series := range []string{"magnitude", "hour", "day", "interval"} {
		r = append(r, "drift_temporal_"+series)
	}
	for _, series := range []string{"duration", "hour", "day"} {
		r = append(r, "drift_spatial_"+series)
	}
	return r
}

// declineError is the incremental path turning a window down; reason is
// the label of the full refit that runs instead.
type declineError struct {
	reason string
	err    error
}

func (e *declineError) Error() string { return e.err.Error() }

func (e *declineError) Unwrap() error { return e.err }

// fullReasonOf returns the full-refit reason an incremental refit's error
// carries.
func fullReasonOf(err error) string {
	var d *declineError
	if errors.As(err, &d) {
		return d.reason
	}
	return fullFoldError
}

// foldError wraps a failed fold-in of the temporal or spatial model
// (model) with its reason: drift_<model>_<series> when the drift
// diagnostic fired, fold_error otherwise.
func foldError(as astopo.AS, model string, err error) error {
	reason := fullFoldError
	var se *core.SeriesError
	if errors.As(err, &se) && (errors.Is(err, arima.ErrDrift) || errors.Is(err, nn.ErrDrift)) {
		reason = "drift_" + model + "_" + se.Series
	}
	return &declineError{reason, fmt.Errorf("serve: AS%d incremental %s: %w", as, model, err)}
}

// fitTargetIncremental folds only the records that arrived since the
// previous generation into clones of its models — O(new records) instead
// of O(window) — keeping the previous spatiotemporal tree (it is
// re-estimated on the periodic full refit). Eligibility is strict: there
// must be a genuinely small in-order tail, the family must be stable, and
// the per-series drift diagnostics must stay quiet; anything else returns
// a *declineError naming the reason, and the caller runs the full fit.
func fitTargetIncremental(prev *TargetModels, as astopo.AS, window []trace.Attack, total uint64, gen uint64, cfg Config) (*TargetModels, error) {
	if prev == nil {
		return nil, &declineError{fullFirstFit, errNotEligible}
	}
	if len(window) < cfg.MinWindow {
		return nil, &declineError{fullTail, errNotEligible}
	}
	if prev.Prov.IncrSinceFull >= cfg.FullRefitEvery-1 {
		return nil, &declineError{fullCap, fmt.Errorf("%w: %d incremental generations since last full", errNotEligible, prev.Prov.IncrSinceFull)}
	}
	newCount := int(total - prev.Total)
	if newCount <= 0 || newCount > len(window)/2 {
		return nil, &declineError{fullTail, errNotEligible}
	}
	tail := window[len(window)-newCount:]
	// The store keeps the window sorted by Start, so an out-of-order
	// arrival inserts mid-window and shifts already-folded history into the
	// positional tail. Fence on the newest Start the previous fit saw:
	// every genuinely new record sorts strictly after it, so a tail that
	// does not would double-count records FoldIn already absorbed — decline
	// (ties included) and let the full refit rebuild from scratch.
	if prev.LastStart.IsZero() || !tail[0].Start.After(prev.LastStart) {
		return nil, &declineError{fullOutOfOrder, errNotEligible}
	}
	// Mirror fitTarget: eligibility and context come from the same filtered
	// view the full path fits on, so family comparisons are like-for-like
	// across generations and the ST feature context stays consistent.
	fitWin, _ := filterVerdicts(window, cfg)
	if dominantFamily(fitWin) != prev.Family {
		return nil, &declineError{fullFamilyChanged, fmt.Errorf("%w: dominant family changed", errNotEligible)}
	}
	tailFiltered := 0
	if len(fitWin) < len(window) { // the verdict filter engaged on this window
		clean := tail[:0:0]
		for i := range tail {
			if tail[i].Verdict == 0 {
				clean = append(clean, tail[i])
			}
		}
		tailFiltered = len(tail) - len(clean)
		if len(clean) == 0 {
			return nil, &declineError{fullTail, fmt.Errorf("%w: tail entirely alerted", errNotEligible)}
		}
		tail = clean
	}
	tm, err := core.IncrementalTemporal(prev.Temporal, tail, cfg.DriftRatio)
	if err != nil {
		return nil, foldError(as, "temporal", err)
	}
	sm, err := core.IncrementalSpatial(prev.Spatial, tail, warmEpochs, cfg.DriftRatio)
	if err != nil {
		return nil, foldError(as, "spatial", err)
	}
	return &TargetModels{
		AS:         as,
		Family:     prev.Family,
		Temporal:   tm,
		Spatial:    sm,
		ST:         prev.ST,     // immutable; re-fit on the next full refit
		prefix:     prev.prefix, // the next carried full refit's prefix starts here
		Ctx:        core.ContextOf(fitWin),
		Window:     len(window),
		Total:      total,
		Generation: gen,
		FittedAt:   time.Now().UTC(),
		LastStart:  window[len(window)-1].Start,
		Prov: Provenance{
			Refit:           refitIncremental,
			BaseGeneration:  prev.Generation,
			FoldedRecords:   len(tail),
			FilteredRecords: tailFiltered,
			IncrSinceFull:   prev.Prov.IncrSinceFull + 1,
			SearchWindow:    prev.Prov.SearchWindow,
		},
	}, nil
}

// spatialCfg derives the per-target NAR configuration: the seed mixes the
// service seed with the target AS, so a full refit is deterministic for a
// given window and previous generation (whose topology it may carry),
// regardless of scheduling.
func spatialCfg(as astopo.AS, cfg Config) core.SpatialConfig {
	sc := cfg.Spatial
	sc.Seed = cfg.Seed ^ (uint64(as) * 0x9e3779b97f4a7c15)
	return sc
}

// dominantFamily returns the most frequent family label in the window
// (ties broken lexicographically for determinism).
func dominantFamily(window []trace.Attack) string {
	counts := make(map[string]int)
	for i := range window {
		counts[window[i].Family]++
	}
	best, bestN := "", -1
	for f, n := range counts {
		if n > bestN || (n == bestN && f < best) {
			best, bestN = f, n
		}
	}
	return best
}

// fitSTModels grows the target's model trees from the walk-forward samples
// stSamples builds. It also returns stSamples' prefix spatial model (zero
// when there was none). Returns a nil tree when the window is too short or
// any stage fails — the target then serves component forecasts.
const (
	stFitFrac    = 0.6
	stMinSamples = 10
)

func fitSTModels(as astopo.AS, window []trace.Attack, topo core.SpatialTopology, from prefixModel, cfg Config) (*core.Spatiotemporal, prefixModel) {
	if len(window) < cfg.MinSTWindow {
		return nil, prefixModel{}
	}
	samples, prefix := stSamples(as, window, topo, from, cfg)
	if len(samples) < stMinSamples {
		return nil, prefix
	}
	st, err := core.FitSpatiotemporal(samples, cfg.ST)
	if err != nil {
		return nil, prefix
	}
	return st, prefix
}

// prefixModel is the spatial model stSamples fitted on a window's prefix
// and walked through the rest of the window, with seen, the newest Start
// that any fit in its chain of warm starts trained on. The walk moves the
// model's lag state, never its weights, and a warm start reads only the
// weights. A later prefix may start from these networks only while seen
// sorts strictly before the first record its walk labels.
type prefixModel struct {
	sm   *core.Spatial
	seen time.Time
}

// stSamples fits throwaway component models on the leading stFitFrac of
// the window — the spatial one with topo, grid-searching its zero series —
// and walks the remainder with core.WalkStep, one labelled row per attack.
// The prefix networks start from's networks when nothing from's chain
// trained on is a record the walk labels, and cold otherwise. It returns
// the rows and the prefix spatial model. Returns nil rows when a
// component fit fails.
func stSamples(as astopo.AS, window []trace.Attack, topo core.SpatialTopology, from prefixModel, cfg Config) ([]core.STSample, prefixModel) {
	fitEnd := int(stFitFrac * float64(len(window)))
	prefix := window[:fitEnd]
	tm, err := core.FitTemporal(dominantFamily(prefix), prefix, cfg.Temporal)
	if err != nil {
		return nil, prefixModel{}
	}
	var start core.SpatialStart
	seen := prefix[fitEnd-1].Start // FitTemporal needs 3 attacks; the window is sorted by Start
	if from.sm != nil && from.seen.Before(window[fitEnd].Start) {
		start = from.sm.Start(warmEpochs)
		if from.seen.After(seen) {
			seen = from.seen
		}
	}
	sm, err := core.FitSpatial(as, prefix, spatialCfg(as, cfg), topo, start)
	if err != nil {
		return nil, prefixModel{}
	}
	var ctx core.ContextTracker
	for i := range prefix {
		ctx.Observe(&prefix[i])
	}
	samples := make([]core.STSample, 0, len(window)-fitEnd)
	for i := fitEnd; i < len(window); i++ {
		samples = append(samples, core.WalkStep(tm, sm, &ctx, as, &window[i]))
	}
	return samples, prefixModel{sm: sm, seen: seen}
}
