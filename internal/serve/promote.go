package serve

import (
	"fmt"
	"sync"

	"repro/internal/astopo"
	"repro/internal/obs"
)

// Champion/challenger promotion (DESIGN.md §15): every published target
// carries a per-measure champion — the model kind whose forecast the
// serving composition uses for that measure. Challengers are judged on
// per-target obs.Accuracy windows scored on the ingest path (the same
// score-then-append protocol as the global tracker), and the decision is
// taken at refit time, so a promotion is always published atomically with
// the generation it applies to. The default champion for every measure is
// the spatiotemporal kind — exactly the ST-when-available composition the
// service served before promotion existed — so a target with no scored
// window behaves identically to earlier builds.

// Measure names used in champion provenance (and /statusz aggregation).
const (
	MeasureMagnitude = "magnitude"
	MeasureDuration  = "duration"
	MeasureTimestamp = "timestamp"
)

// Champions records the serving model kind per measure. Empty fields mean
// the default (ModelST).
type Champions struct {
	Magnitude string `json:"magnitude,omitempty"`
	Duration  string `json:"duration,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
}

// champOr maps a recorded champion to the kind that serves it: the zero
// value and any kind this build does not have (the "ensemble" of a
// snapshot written before the stacked ensemble was removed) serve as
// the default ModelST until the next refit decides again.
func champOr(kind string) string {
	switch kind {
	case ModelTemporal, ModelSpatial:
		return kind
	}
	return ModelST
}

// Promotion is one champion change, recorded in the target's lineage.
type Promotion struct {
	Measure    string `json:"measure"`
	From       string `json:"from"`
	To         string `json:"to"`
	Generation uint64 `json:"generation"` // generation the change took effect
	Reason     string `json:"reason"`
}

// maxPromotionHistory caps the per-target lineage carried through
// snapshots (oldest entries fall off).
const maxPromotionHistory = 8

// Provenance records how a generation was produced and which model kinds
// it serves. It rides inside TargetModels through the snapshot codec,
// /forecast, and /statusz.
type Provenance struct {
	// Refit is "full" or "incremental".
	Refit string `json:"refit,omitempty"`
	// BaseGeneration is the generation an incremental refit folded from.
	BaseGeneration uint64 `json:"base_generation,omitempty"`
	// FoldedRecords is how many new records the incremental refit consumed.
	FoldedRecords int `json:"folded_records,omitempty"`
	// FilteredRecords counts alerted records the verdict filter excluded.
	FilteredRecords int `json:"filtered_records,omitempty"`
	// IncrSinceFull counts consecutive incremental refits since the last
	// full re-estimation (bounded by Config.FullRefitEvery).
	IncrSinceFull int `json:"incr_since_full,omitempty"`
	// SearchWindow is the fit-window length of the last full refit that
	// grid-searched the NAR topology; the next search is due once the fit
	// window has doubled it (searchDue). Zero, as in a snapshot from
	// before the field, makes the next full refit search.
	SearchWindow int `json:"search_window,omitempty"`
	// Champions is the served composition per measure.
	Champions Champions `json:"champions"`
	// History is the capped promotion lineage, oldest first.
	History []Promotion `json:"history,omitempty"`
}

const (
	refitFull        = "full"
	refitIncremental = "incremental"
)

// promoTracker holds one obs.Accuracy window per target, scoring every
// model kind's point forecast against each in-order arrival. Trackers are
// created lazily on the first scored arrival of a target with published
// models and dropped with the target on store eviction.
type promoTracker struct {
	window int
	mu     sync.RWMutex
	m      map[astopo.AS]*obs.Accuracy
}

func newPromoTracker(window int) *promoTracker {
	return &promoTracker{window: window, m: make(map[astopo.AS]*obs.Accuracy)}
}

// promoKinds are the champion candidates tracked per target.
func promoKinds() []string {
	return []string{ModelTemporal, ModelSpatial, ModelST}
}

// get returns the target's tracker, or nil when none exists yet.
func (p *promoTracker) get(as astopo.AS) *obs.Accuracy {
	p.mu.RLock()
	acc := p.m[as]
	p.mu.RUnlock()
	return acc
}

// ensure returns the target's tracker, creating it on first use. created
// reports whether this call inserted a fresh tracker — the caller must
// then re-check the target still exists (see scoreArrival): an ensure that
// lost a race against the eviction hook's Drop would otherwise resurrect a
// tracker no refit will ever read.
func (p *promoTracker) ensure(as astopo.AS) (acc *obs.Accuracy, created bool) {
	if acc := p.get(as); acc != nil {
		return acc, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if acc := p.m[as]; acc != nil {
		return acc, false
	}
	acc = obs.NewAccuracy(obs.AccuracyConfig{Window: p.window})
	for _, kind := range promoKinds() {
		acc.Model(kind)
	}
	p.m[as] = acc
	return acc, true
}

// Drop forgets a target's windows (store eviction).
func (p *promoTracker) Drop(as astopo.AS) {
	p.mu.Lock()
	delete(p.m, as)
	p.mu.Unlock()
}

// Size returns the number of tracked targets (/statusz).
func (p *promoTracker) Size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.m)
}

// measureSpec describes one measure's champion contest: the eligible
// kinds in deterministic order, how to read a kind's windowed value, and
// whether lower or higher is better.
type measureSpec struct {
	name      string
	kinds     []string
	value     func(obs.Summary) (val float64, samples int)
	lowerWins bool
}

func measureSpecs() []measureSpec {
	return []measureSpec{
		{
			name:      MeasureMagnitude,
			kinds:     []string{ModelST, ModelTemporal},
			value:     func(s obs.Summary) (float64, int) { return s.Magnitude.MeanRelErr, s.Magnitude.Samples },
			lowerWins: true,
		},
		{
			name:      MeasureDuration,
			kinds:     []string{ModelST, ModelSpatial},
			value:     func(s obs.Summary) (float64, int) { return s.Duration.MeanRelErr, s.Duration.Samples },
			lowerWins: true,
		},
		{
			name:      MeasureTimestamp,
			kinds:     []string{ModelST, ModelTemporal, ModelSpatial},
			value:     func(s obs.Summary) (float64, int) { return s.Timestamp.Rate, s.Timestamp.Samples },
			lowerWins: false,
		},
	}
}

// decideChampions runs the champion/challenger contest for one target at
// refit time. prev carries the incumbents (zero value: ST defaults; see
// champOr); acc is the target's live accuracy window (nil: no scored
// arrivals yet — incumbents hold). A challenger must beat the incumbent
// by the configured margin with at least PromoMinSamples scored arrivals
// for its measure. Every change is returned as a Promotion stamped with
// gen.
func decideChampions(prev Champions, acc *obs.Accuracy, gen uint64, cfg Config) (Champions, []Promotion) {
	out := Champions{
		Magnitude: champOr(prev.Magnitude),
		Duration:  champOr(prev.Duration),
		Timestamp: champOr(prev.Timestamp),
	}
	if acc == nil {
		return out, nil
	}
	field := func(measure string) *string {
		switch measure {
		case MeasureMagnitude:
			return &out.Magnitude
		case MeasureDuration:
			return &out.Duration
		default:
			return &out.Timestamp
		}
	}
	var promos []Promotion
	for _, spec := range measureSpecs() {
		champ := field(spec.name)
		incumbent := *champ
		incVal, incSamples := spec.value(acc.Summary(incumbent))
		bestKind, bestVal := "", 0.0
		for _, kind := range spec.kinds {
			if kind == incumbent {
				continue
			}
			val, samples := spec.value(acc.Summary(kind))
			if samples < cfg.PromoMinSamples {
				continue
			}
			better := false
			switch {
			case incSamples < cfg.PromoMinSamples:
				// The incumbent has no judged window of its own: any fully
				// sampled challenger may take over (first in kind order wins
				// ties via the strict comparison below).
				better = true
			case spec.lowerWins:
				better = val < incVal*(1-cfg.PromoMargin)
			default:
				better = val > incVal+cfg.PromoMargin
			}
			if !better {
				continue
			}
			if bestKind == "" || (spec.lowerWins && val < bestVal) || (!spec.lowerWins && val > bestVal) {
				bestKind, bestVal = kind, val
			}
		}
		if bestKind == "" {
			continue
		}
		reason := fmt.Sprintf("%s: %s %.4f vs %s %.4f over live window", spec.name, bestKind, bestVal, incumbent, incVal)
		if incSamples < cfg.PromoMinSamples {
			reason = fmt.Sprintf("%s: %s %.4f; incumbent %s unscored", spec.name, bestKind, bestVal, incumbent)
		}
		*champ = bestKind
		promos = append(promos, Promotion{
			Measure: spec.name, From: incumbent, To: bestKind, Generation: gen, Reason: reason,
		})
	}
	return out, promos
}

// appendHistory merges new promotions into the capped lineage.
func appendHistory(history []Promotion, promos []Promotion) []Promotion {
	if len(promos) == 0 && len(history) <= maxPromotionHistory {
		return history
	}
	merged := make([]Promotion, 0, len(history)+len(promos))
	merged = append(merged, history...)
	merged = append(merged, promos...)
	if len(merged) > maxPromotionHistory {
		merged = merged[len(merged)-maxPromotionHistory:]
	}
	return merged
}
