package eval

import (
	"errors"
	"sort"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Model names used as map keys in the Figure 3/4 results.
const (
	ModelTemporal       = "temporal"
	ModelSpatial        = "spatial"
	ModelSpatiotemporal = "spatiotemporal"
)

// Figure34Result carries everything Figures 3 and 4 display: per-model
// predicted-hour and predicted-day distributions against ground truth
// (Figure 3), per-model error distributions, and the RMSE comparison the
// paper reports in §VI-B (Figure 4).
type Figure34Result struct {
	// N is the number of target-specific next-attack predictions.
	N int
	// HourRMSE / DayRMSE per model (paper: hour 5.0 / 3.82 / 1.85 for
	// spatial / temporal / spatiotemporal; day 5.17 / 2.72 for spatial /
	// spatiotemporal).
	HourRMSE map[string]float64
	DayRMSE  map[string]float64
	// Predicted distributions (Figure 3): 24 hour bins, 31 day bins.
	HourHist map[string][]int
	DayHist  map[string][]int
	// Ground-truth distributions.
	TruthHourHist []int
	TruthDayHist  []int
	// Raw signed errors per model (Figure 4).
	HourErrors map[string][]float64
	DayErrors  map[string][]float64
	// HourKS / DayKS are the two-sample Kolmogorov–Smirnov distances
	// between each model's predicted distribution and the ground truth —
	// a quantitative version of Figure 3's "whose histogram sits closest".
	HourKS map[string]float64
	DayKS  map[string]float64
	// Diagnostics: RMSE of trivially predicting the target's previous
	// hour/day, and the hour-tree shape.
	PrevHourRMSE   float64
	PrevDayRMSE    float64
	HourTreeLeaves int
}

// ctxKey identifies a (family, victim) pair: the victim observes labeled
// attacks, so its context is per attacking family.
type ctxKey struct {
	family string
	ip     astopo.IPv4
}

// stSample extends core.STSample with bookkeeping for the experiment.
type stSample struct {
	core.STSample
	target astopo.IPv4
	as     astopo.AS
	order  int
}

// Figure34Config tunes the experiment.
type Figure34Config struct {
	// FitFrac is the fraction of the dataset used to fit the temporal and
	// spatial component models (default 0.6); the next stretch up to
	// TestFrac provides regression-tree training samples; the remainder
	// is evaluated.
	FitFrac  float64
	TestFrac float64
	// MinFamilyTrain / MinASTrain gate component-model fitting.
	MinFamilyTrain int
	MinASTrain     int
	// LocalHistory / RecentHistory reproduce the paper's two ten-attack
	// history groups per target (only used when PerTargetTrees is set).
	LocalHistory  int
	RecentHistory int
	// PerTargetTrees grows one model tree per target from its two history
	// groups (the paper's literal §VI-B protocol). The default pools all
	// training samples into global model trees, which is statistically
	// stronger at laptop scale and preserves the paper's model ordering.
	PerTargetTrees bool
	// MaxSeriesLen caps the series length fed to the NAR grid search to
	// bound training cost on very active networks (default 400).
	MaxSeriesLen int
}

func (c Figure34Config) withDefaults() Figure34Config {
	if c.FitFrac <= 0 || c.FitFrac >= 1 {
		c.FitFrac = 0.6
	}
	if c.TestFrac <= c.FitFrac || c.TestFrac >= 1 {
		c.TestFrac = 0.8
	}
	if c.MinFamilyTrain < 3 {
		c.MinFamilyTrain = 12
	}
	if c.MinASTrain < 3 {
		c.MinASTrain = 12
	}
	if c.LocalHistory < 1 {
		c.LocalHistory = 10
	}
	if c.RecentHistory < 1 {
		c.RecentHistory = 10
	}
	if c.MaxSeriesLen < 1 {
		c.MaxSeriesLen = 400
	}
	return c
}

// RunFigure34 reproduces the spatiotemporal experiment of §VI-B: fit the
// temporal model per family and the spatial model per target network on
// the fit window; walk forward recording each component model's
// predictions per attack; train a regression model tree per target from
// its history (plus ten AS-local and ten recent attacks, as the paper
// assumes the victim can observe); and evaluate next-attack hour and day
// predictions on the test window for all three models.
func RunFigure34(env *Env, cfg Figure34Config) (*Figure34Result, error) {
	cfg = cfg.withDefaults()
	samples, testStart, err := collectSamples(env, cfg)
	if err != nil {
		return nil, err
	}
	return assembleFigure34(samples, testStart, cfg)
}

// collectSamples fits the component models on the fit window and walks
// forward over the remainder, recording per-attack features and labels.
func collectSamples(env *Env, cfg Figure34Config) ([]stSample, int, error) {
	ds := env.Dataset
	n := ds.Len()
	if n < 100 {
		return nil, 0, errors.New("eval: figure 3/4 needs at least 100 attacks")
	}
	fitEnd := int(cfg.FitFrac * float64(n))
	testStart := int(cfg.TestFrac * float64(n))

	fit := &trace.Dataset{Attacks: ds.Attacks[:fitEnd]}

	// Component models. Per-family and per-AS fits are independent (they
	// read disjoint training slices and every fit is internally seeded), so
	// both loops fan out on the worker pool; infeasible fits come back nil,
	// exactly like the serial skip.
	fams := fit.Families()
	tmods, _ := parallel.Map(len(fams), 0, func(i int) (*core.Temporal, error) {
		attacks := fit.ByFamily(fams[i])
		if len(attacks) < cfg.MinFamilyTrain {
			return nil, nil
		}
		m, err := core.FitTemporal(fams[i], attacks, core.TemporalConfig{})
		if err != nil {
			return nil, nil
		}
		return m, nil
	})
	temporal := make(map[string]*core.Temporal)
	for i, m := range tmods {
		if m != nil {
			temporal[fams[i]] = m
		}
	}
	spCfg := core.SpatialConfig{
		Delays: []int{2, 4},
		Hidden: []int{4, 8},
		Seed:   env.Cfg.Seed + 7,
		Train:  nn.TrainConfig{Epochs: 200},
	}
	byAS := fit.ByTargetAS()
	ases := make([]astopo.AS, 0, len(byAS))
	for as := range byAS {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	smods, _ := parallel.Map(len(ases), 0, func(i int) (*core.Spatial, error) {
		attacks := byAS[ases[i]]
		if len(attacks) < cfg.MinASTrain {
			return nil, nil
		}
		if len(attacks) > cfg.MaxSeriesLen {
			attacks = attacks[len(attacks)-cfg.MaxSeriesLen:]
		}
		m, err := core.FitSpatial(ases[i], attacks, spCfg, core.SpatialTopology{}, core.SpatialStart{})
		if err != nil {
			return nil, nil
		}
		return m, nil
	})
	spatial := make(map[astopo.AS]*core.Spatial)
	for i, m := range smods {
		if m != nil {
			spatial[ases[i]] = m
		}
	}

	// Walk forward: attacks in the fit window only feed their target's
	// context; after it, each step builds its attack's row before
	// observing the attack.
	targets := make(map[ctxKey]*core.ContextTracker)
	var samples []stSample
	for i := range ds.Attacks {
		a := &ds.Attacks[i]
		key := ctxKey{family: a.Family, ip: a.TargetIP}
		ctx := targets[key]
		if ctx == nil {
			ctx = &core.ContextTracker{}
			targets[key] = ctx
		}
		fm, sm := temporal[a.Family], spatial[a.TargetAS]
		if i < fitEnd || fm == nil || sm == nil {
			ctx.Observe(a)
			continue
		}
		samples = append(samples, stSample{
			STSample: core.WalkStep(fm, sm, ctx, a.TargetAS, a),
			target:   a.TargetIP,
			as:       a.TargetAS,
			order:    i,
		})
	}
	return samples, testStart, nil
}

// fitGlobalTrees pools every training sample into one set of model trees.
func fitGlobalTrees(trainSamples []stSample) *core.Spatiotemporal {
	rows := make([]core.STSample, len(trainSamples))
	for i := range trainSamples {
		rows[i] = trainSamples[i].STSample
	}
	st, err := core.FitSpatiotemporal(rows, core.STConfig{})
	if err != nil {
		return nil
	}
	return st
}

// assembleFigure34 trains per-target model trees on the pre-test samples
// and evaluates all three models on the test samples.
func assembleFigure34(samples []stSample, testStart int, cfg Figure34Config) (*Figure34Result, error) {
	var trainSamples, testSamples []stSample
	for _, s := range samples {
		if s.order < testStart {
			trainSamples = append(trainSamples, s)
		} else {
			testSamples = append(testSamples, s)
		}
	}
	if len(testSamples) == 0 || len(trainSamples) == 0 {
		return nil, errors.New("eval: figure 3/4: insufficient samples")
	}
	byTarget := make(map[astopo.IPv4][]int)
	byASIdx := make(map[astopo.AS][]int)
	for i := range trainSamples {
		byTarget[trainSamples[i].target] = append(byTarget[trainSamples[i].target], i)
		byASIdx[trainSamples[i].as] = append(byASIdx[trainSamples[i].as], i)
	}

	res := &Figure34Result{
		HourRMSE:      make(map[string]float64),
		DayRMSE:       make(map[string]float64),
		HourHist:      make(map[string][]int),
		DayHist:       make(map[string][]int),
		HourKS:        make(map[string]float64),
		DayKS:         make(map[string]float64),
		HourErrors:    make(map[string][]float64),
		DayErrors:     make(map[string][]float64),
		TruthHourHist: make([]int, 24),
		TruthDayHist:  make([]int, 31),
	}
	preds := map[string][]float64{}    // model -> hour predictions
	dayPreds := map[string][]float64{} // model -> day predictions
	var hourTruth, dayTruth []float64

	var global *core.Spatiotemporal
	if !cfg.PerTargetTrees {
		global = fitGlobalTrees(trainSamples)
		if global == nil {
			return nil, errors.New("eval: figure 3/4: global tree fit failed")
		}
	}
	trees := make(map[astopo.IPv4]*core.Spatiotemporal)
	for _, s := range testSamples {
		st := global
		if cfg.PerTargetTrees {
			var ok bool
			st, ok = trees[s.target]
			if !ok {
				st = fitTargetTree(s.target, s.as, trainSamples, byTarget, byASIdx, cfg)
				trees[s.target] = st
			}
		}
		if st == nil {
			continue
		}
		tmpH, spaH, stH := s.F.TmpHour, s.F.SpaHour, st.PredictHour(&s.F)
		tmpD, spaD, stD := s.F.TmpDay, s.F.SpaDay, st.PredictDay(&s.F)
		preds[ModelTemporal] = append(preds[ModelTemporal], tmpH)
		preds[ModelSpatial] = append(preds[ModelSpatial], spaH)
		preds[ModelSpatiotemporal] = append(preds[ModelSpatiotemporal], stH)
		dayPreds[ModelTemporal] = append(dayPreds[ModelTemporal], tmpD)
		dayPreds[ModelSpatial] = append(dayPreds[ModelSpatial], spaD)
		dayPreds[ModelSpatiotemporal] = append(dayPreds[ModelSpatiotemporal], stD)
		hourTruth = append(hourTruth, s.Hour)
		dayTruth = append(dayTruth, s.Day)
	}
	if len(hourTruth) == 0 {
		return nil, errors.New("eval: figure 3/4: no target had enough history")
	}
	res.N = len(hourTruth)
	if global != nil {
		res.HourTreeLeaves = global.Hour.Leaves()
	}
	var prevH, prevD []float64
	for _, s := range testSamples {
		prevH = append(prevH, s.F.PrevHour)
		prevD = append(prevD, s.F.PrevDay)
	}
	if len(prevH) == len(hourTruth) {
		res.PrevHourRMSE, _ = stats.RMSE(prevH, hourTruth)
		res.PrevDayRMSE, _ = stats.RMSE(prevD, dayTruth)
	}
	res.TruthHourHist = stats.HistogramInts(hourTruth, 0, 23)
	res.TruthDayHist = stats.HistogramInts(dayTruth, 1, 31)
	for _, model := range []string{ModelTemporal, ModelSpatial, ModelSpatiotemporal} {
		hr, err := stats.RMSE(preds[model], hourTruth)
		if err != nil {
			return nil, err
		}
		dr, err := stats.RMSE(dayPreds[model], dayTruth)
		if err != nil {
			return nil, err
		}
		res.HourRMSE[model] = hr
		res.DayRMSE[model] = dr
		res.HourHist[model] = stats.HistogramInts(preds[model], 0, 23)
		res.DayHist[model] = stats.HistogramInts(dayPreds[model], 1, 31)
		res.HourKS[model] = stats.KSStatistic(preds[model], hourTruth)
		res.DayKS[model] = stats.KSStatistic(dayPreds[model], dayTruth)
		hErr := make([]float64, len(hourTruth))
		dErr := make([]float64, len(dayTruth))
		for i := range hourTruth {
			hErr[i] = preds[model][i] - hourTruth[i]
			dErr[i] = dayPreds[model][i] - dayTruth[i]
		}
		res.HourErrors[model] = hErr
		res.DayErrors[model] = dErr
	}
	return res, nil
}

// fitTargetTree assembles the paper's two history groups for one target —
// its own and AS-local attacks, plus recent attacks anywhere — and grows
// the spatiotemporal model tree. Returns nil when history is insufficient.
func fitTargetTree(tgt astopo.IPv4, as astopo.AS, trainSamples []stSample,
	byTarget map[astopo.IPv4][]int, byASIdx map[astopo.AS][]int, cfg Figure34Config) *core.Spatiotemporal {

	idxSet := make(map[int]bool)
	var rows []core.STSample
	add := func(idx int) {
		if !idxSet[idx] {
			idxSet[idx] = true
			rows = append(rows, trainSamples[idx].STSample)
		}
	}
	// Group 1: AS-local history (includes the target's own attacks).
	local := byASIdx[as]
	own := byTarget[tgt]
	for _, i := range own {
		add(i)
	}
	for k := len(local) - 1; k >= 0 && len(rows) < len(own)+cfg.LocalHistory; k-- {
		add(local[k])
	}
	// Group 2: recent attacks anywhere.
	for k := len(trainSamples) - 1; k >= 0 && len(rows) < len(own)+cfg.LocalHistory+cfg.RecentHistory; k-- {
		add(k)
	}
	if len(rows) < 8 {
		return nil
	}
	st, err := core.FitSpatiotemporal(rows, core.STConfig{})
	if err != nil {
		return nil
	}
	return st
}
