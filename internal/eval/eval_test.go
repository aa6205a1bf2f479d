package eval

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

var (
	envOnce sync.Once
	testEnv *Env
	envErr  error
)

// sharedEnv builds one small world reused by all eval tests (BuildEnv is
// the expensive step).
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv, envErr = BuildEnv(Config{Seed: 77, Scale: 0.12, HorizonDays: 200})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return testEnv
}

func TestBuildEnvDeterministic(t *testing.T) {
	a, err := BuildEnv(Config{Seed: 5, Scale: 0.05, HorizonDays: 60})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEnv(Config{Seed: 5, Scale: 0.05, HorizonDays: 60})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.Len() != b.Dataset.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Dataset.Len(), b.Dataset.Len())
	}
	for i := range a.Dataset.Attacks {
		if a.Dataset.Attacks[i].ID != b.Dataset.Attacks[i].ID {
			t.Fatal("attack order differs")
		}
	}
	if a.Inferred.Len() != b.Inferred.Len() {
		t.Error("inferred graphs differ")
	}
}

func TestRunTable1(t *testing.T) {
	env := sharedEnv(t)
	rows := RunTable1(env)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// Every row carries paper reference values and sane measurements.
	for _, r := range rows {
		if r.PaperAvgPerDay == 0 {
			t.Errorf("%s: missing paper reference", r.Family)
		}
		if r.AvgPerDay <= 0 || r.ActiveDays <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Family, r)
		}
		if math.IsNaN(r.CV) {
			t.Errorf("%s: NaN CV", r.Family)
		}
	}
	// Ordering: most active family first; DirtJumper dominates any scale.
	if rows[0].Family != "DirtJumper" {
		t.Errorf("top family = %s", rows[0].Family)
	}
}

func TestRunTable2(t *testing.T) {
	rows := RunTable2()
	if len(rows) != 9 {
		t.Fatalf("Table II rows = %d, want 9", len(rows))
	}
	seen := make(map[string]bool)
	for _, r := range rows {
		if r.Variable == "" || r.Description == "" {
			t.Errorf("empty row %+v", r)
		}
		if seen[r.Variable] {
			t.Errorf("duplicate variable %s", r.Variable)
		}
		seen[r.Variable] = true
	}
}

func TestRunFigure1(t *testing.T) {
	env := sharedEnv(t)
	series, err := RunFigure1(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("families = %d, want 3", len(series))
	}
	for _, s := range series {
		if len(s.Truth) != len(s.Pred) || len(s.Errors) != len(s.Truth) {
			t.Fatalf("%s: length mismatch", s.Family)
		}
		if s.RMSE <= 0 || math.IsNaN(s.RMSE) {
			t.Errorf("%s: RMSE = %v", s.Family, s.RMSE)
		}
		// The temporal model must beat the Always Same baseline (the
		// paper's headline for Figure 1).
		if s.RMSE >= s.NaiveRMSE {
			t.Errorf("%s: ARIMA %.3f should beat naive %.3f", s.Family, s.RMSE, s.NaiveRMSE)
		}
		for i := range s.Errors {
			if got := s.Pred[i] - s.Truth[i]; math.Abs(got-s.Errors[i]) > 1e-9 {
				t.Fatalf("%s: error[%d] inconsistent", s.Family, i)
			}
		}
	}
	if _, err := RunFigure1(env, []string{"NoSuchFamily"}); err == nil {
		t.Error("unknown family should error")
	}
}

func TestRunFigure2(t *testing.T) {
	env := sharedEnv(t)
	results, err := RunFigure2(env, []string{"DirtJumper"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if len(r.ASes) == 0 || len(r.TruthShare) != len(r.ASes) || len(r.PredShare) != len(r.ASes) {
		t.Fatalf("malformed result %+v", r)
	}
	var truthSum, predSum float64
	for i := range r.ASes {
		truthSum += r.TruthShare[i]
		predSum += r.PredShare[i]
	}
	if math.Abs(truthSum-1) > 1e-9 || math.Abs(predSum-1) > 1e-9 {
		t.Errorf("shares not normalized: %v / %v", truthSum, predSum)
	}
	if r.RMSE < 0 || r.RMSE > 0.5 {
		t.Errorf("share RMSE = %v implausible", r.RMSE)
	}
	// Predicted distribution should track the truth within a coarse bound
	// (the paper reports near-identical distributions for DirtJumper).
	for i := range r.ASes {
		if math.Abs(r.TruthShare[i]-r.PredShare[i]) > 0.15 {
			t.Errorf("AS %d share off: truth %.3f pred %.3f", r.ASes[i], r.TruthShare[i], r.PredShare[i])
		}
	}
	if _, err := RunFigure2(env, []string{"NoSuchFamily"}, 3); err == nil {
		t.Error("unknown family should error")
	}
}

func TestRunFigure34(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunFigure34(env, Figure34Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N < 50 {
		t.Fatalf("too few predictions: %d", res.N)
	}
	for _, model := range []string{ModelTemporal, ModelSpatial, ModelSpatiotemporal} {
		if res.HourRMSE[model] <= 0 || res.DayRMSE[model] <= 0 {
			t.Errorf("%s: nonpositive RMSE", model)
		}
		if len(res.HourHist[model]) != 24 || len(res.DayHist[model]) != 31 {
			t.Errorf("%s: histogram shapes wrong", model)
		}
		if len(res.HourErrors[model]) != res.N {
			t.Errorf("%s: error count %d != N %d", model, len(res.HourErrors[model]), res.N)
		}
	}
	// The paper's headline ordering (Figure 4): the spatiotemporal model
	// beats both component models on hour prediction, and the spatial
	// model is the weakest.
	st, tmp, spa := res.HourRMSE[ModelSpatiotemporal], res.HourRMSE[ModelTemporal], res.HourRMSE[ModelSpatial]
	if st >= tmp {
		t.Errorf("hour: spatiotemporal %.3f should beat temporal %.3f", st, tmp)
	}
	if tmp >= spa {
		t.Errorf("hour: temporal %.3f should beat spatial %.3f", tmp, spa)
	}
	// Day prediction: spatiotemporal must beat spatial (the paper's 2.72
	// vs 5.17 days).
	if res.DayRMSE[ModelSpatiotemporal] >= res.DayRMSE[ModelSpatial] {
		t.Errorf("day: spatiotemporal %.3f should beat spatial %.3f",
			res.DayRMSE[ModelSpatiotemporal], res.DayRMSE[ModelSpatial])
	}
	// Truth histograms cover all predictions.
	var total int
	for _, c := range res.TruthHourHist {
		total += c
	}
	if total != res.N {
		t.Errorf("truth hour histogram total %d != N %d", total, res.N)
	}
}

func TestRunFigure34PerTargetTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("grows one tree per target")
	}
	env := sharedEnv(t)
	res, err := RunFigure34(env, Figure34Config{PerTargetTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no predictions with per-target trees")
	}
	// Per-target trees still must beat the spatial model on hour RMSE.
	if res.HourRMSE[ModelSpatiotemporal] >= res.HourRMSE[ModelSpatial] {
		t.Errorf("per-target: spatiotemporal %.3f should beat spatial %.3f",
			res.HourRMSE[ModelSpatiotemporal], res.HourRMSE[ModelSpatial])
	}
}

func TestRunComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("walk-forwards 4 predictors over 9 series")
	}
	env := sharedEnv(t)
	rows, err := RunComparison(env, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no comparison rows")
	}
	winsByModel := 0
	for _, r := range rows {
		if len(r.RMSE) != 4 {
			t.Fatalf("row %s/%s has %d predictors", r.Family, r.Feature, len(r.RMSE))
		}
		for name, v := range r.RMSE {
			if v < 0 || math.IsNaN(v) {
				t.Errorf("%s/%s/%s RMSE = %v", r.Family, r.Feature, name, v)
			}
		}
		if r.Winner == "Temporal(ARIMA)" || r.Winner == "Spatial(NAR)" {
			winsByModel++
		}
	}
	// The paper's claim: its models always beat the simple baselines. At
	// small scale demand a strong majority rather than a sweep.
	if float64(winsByModel) < 0.7*float64(len(rows)) {
		t.Errorf("paper models win only %d/%d comparison rows", winsByModel, len(rows))
	}
}

func TestRunFigure5(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunFigure5(env, Figure5Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Family == "" || res.Attacks == 0 {
		t.Fatalf("malformed result %+v", res)
	}
	pm, rm := res.PredictiveFiltering, res.ReactiveFiltering
	if pm.Recall <= 0 || pm.Recall > 1 {
		t.Errorf("predictive recall = %v", pm.Recall)
	}
	// Prediction-driven filtering must beat the reactive snapshot.
	if pm.Recall <= rm.Recall-0.01 {
		t.Errorf("predictive recall %.3f should be >= reactive %.3f", pm.Recall, rm.Recall)
	}
	if pm.Collateral < 0 || pm.Collateral > 0.5 {
		t.Errorf("collateral = %v implausible", pm.Collateral)
	}
	// Proactive reordering protects more attacks than reactive (which by
	// construction is always late).
	if res.ProactiveProtected <= res.ReactiveProtected {
		t.Errorf("proactive %.3f should beat reactive %.3f", res.ProactiveProtected, res.ReactiveProtected)
	}
	if res.ReactiveExposureSec <= 0 {
		t.Error("reactive exposure should be positive")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	if len([]rune(got)) != 8 {
		t.Errorf("sparkline runes = %d", len([]rune(got)))
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("sparkline extremes wrong: %q", got)
	}
	// Downsampling caps width.
	long := make([]float64, 500)
	for i := range long {
		long[i] = float64(i)
	}
	if got := Sparkline(long, 40); len([]rune(got)) != 40 {
		t.Errorf("downsampled width = %d", len([]rune(got)))
	}
	// Constant series renders at the lowest level without panicking.
	flat := Sparkline([]float64{5, 5, 5}, 0)
	if len([]rune(flat)) != 3 {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "a ") || !strings.Contains(out, "bb") {
		t.Errorf("labels missing: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Errorf("max bar should span 10: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Errorf("half bar should span 5: %q", lines[0])
	}
	if BarChart([]string{"a"}, []float64{1, 2}, 10) != "" {
		t.Error("mismatched input should return empty")
	}
}

func TestHistString(t *testing.T) {
	got := HistString([]int{1, 2, 3}, 5)
	if !strings.HasPrefix(got, "[5..7] ") {
		t.Errorf("HistString = %q", got)
	}
}

func TestRunFeatureAnalysis(t *testing.T) {
	env := sharedEnv(t)
	results, err := RunFeatureAnalysis(env, []string{"DirtJumper"})
	if err != nil {
		t.Fatal(err)
	}
	fa := results[0]
	// Quantiles must be ordered.
	if !(fa.InterLaunchQuantiles["p10"] <= fa.InterLaunchQuantiles["p50"] &&
		fa.InterLaunchQuantiles["p50"] <= fa.InterLaunchQuantiles["p90"] &&
		fa.InterLaunchQuantiles["p90"] <= fa.InterLaunchQuantiles["p99"]) {
		t.Errorf("quantiles not ordered: %+v", fa.InterLaunchQuantiles)
	}
	if fa.WindowCoverage < 0 || fa.WindowCoverage > 1 {
		t.Errorf("window coverage = %v", fa.WindowCoverage)
	}
	// DirtJumper revisits targets every ~2 days, so a substantial share of
	// its attacks are multistage under the paper's rule.
	if fa.MultistageFrac < 0.3 {
		t.Errorf("multistage fraction = %v, want >= 0.3 for DirtJumper", fa.MultistageFrac)
	}
	if fa.Chains == 0 || fa.MeanChainLen < 1 || fa.LongestChain < 2 {
		t.Errorf("chain stats: %+v", fa)
	}
	// The A^f series is a smoothing cumulative average: ARIMA must beat
	// the global-mean baseline by a wide margin.
	if fa.AFModelRMSE >= fa.AFMeanRMSE {
		t.Errorf("A^f: ARIMA %v should beat mean %v", fa.AFModelRMSE, fa.AFMeanRMSE)
	}
	if fa.ABModelRMSE >= fa.ABMeanRMSE {
		t.Errorf("A^b: ARIMA %v should beat mean %v", fa.ABModelRMSE, fa.ABMeanRMSE)
	}
	if fa.ASModelRMSE <= 0 || fa.ASMeanRMSE <= 0 {
		t.Errorf("A^s RMSEs: %v / %v", fa.ASModelRMSE, fa.ASMeanRMSE)
	}
	if _, err := RunFeatureAnalysis(env, []string{"NoSuchFamily"}); err == nil {
		t.Error("unknown family should error")
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(3600); got != "1h0m0s" {
		t.Errorf("FormatDuration(3600) = %q", got)
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("retrains 6 model-tree variants")
	}
	env := sharedEnv(t)
	rows, err := RunAblation(env, Figure34Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("ablation rows = %d, want 6", len(rows))
	}
	byName := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		if r.HourRMSE <= 0 || r.DayRMSE <= 0 || math.IsNaN(r.HourRMSE) {
			t.Errorf("%s: degenerate RMSE %+v", r.Variant, r)
		}
		if r.HourLeaves < 1 {
			t.Errorf("%s: no leaves", r.Variant)
		}
		byName[r.Variant] = r
	}
	for _, name := range []string{AblationFull, AblationNoTemporal, AblationNoSpatial,
		AblationNoLocal, AblationMeanLeaves, AblationNoPruning} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing variant %s", name)
		}
	}
	// The temporal features carry the day signal: removing them must hurt
	// day prediction markedly.
	if byName[AblationNoTemporal].DayRMSE <= byName[AblationFull].DayRMSE {
		t.Errorf("removing temporal features should hurt day RMSE: %v vs full %v",
			byName[AblationNoTemporal].DayRMSE, byName[AblationFull].DayRMSE)
	}
}

func TestRunFigure34KSDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats the full figure 3/4 run")
	}
	env := sharedEnv(t)
	res, err := RunFigure34(env, Figure34Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{ModelTemporal, ModelSpatial, ModelSpatiotemporal} {
		if ks := res.HourKS[model]; ks < 0 || ks > 1 || math.IsNaN(ks) {
			t.Errorf("%s hour KS = %v", model, ks)
		}
		if ks := res.DayKS[model]; ks < 0 || ks > 1 || math.IsNaN(ks) {
			t.Errorf("%s day KS = %v", model, ks)
		}
	}
	// The spatiotemporal model's predicted distributions sit closest to
	// ground truth (the Figure 3 observation).
	if res.HourKS[ModelSpatiotemporal] > res.HourKS[ModelSpatial] {
		t.Errorf("hour KS: spatiotemporal %.3f should not exceed spatial %.3f",
			res.HourKS[ModelSpatiotemporal], res.HourKS[ModelSpatial])
	}
}

func TestRunDefensePipeline(t *testing.T) {
	env := sharedEnv(t)
	exp, err := RunDefensePipeline(env, 3)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Predictive == nil || exp.Reactive == nil {
		t.Fatal("missing replay results")
	}
	if !exp.Predictive.Detected {
		t.Error("predictive pipeline failed to detect the flood")
	}
	if exp.Predictive.DetectionDelay > time.Minute {
		t.Errorf("detection delay = %v, want under a minute", exp.Predictive.DetectionDelay)
	}
	if exp.PredictiveScrubRate < 0.5 {
		t.Errorf("predictive scrub rate = %v, want >= 0.5", exp.PredictiveScrubRate)
	}
	// Both rule sets cover the same stable home ASes; residual differences
	// come from which tail AS the 90% coverage cutoff keeps, so only guard
	// against a gross regression.
	if exp.PredictiveScrubRate < exp.ReactiveScrubRate-0.15 {
		t.Errorf("predictive scrub %.3f far below reactive %.3f",
			exp.PredictiveScrubRate, exp.ReactiveScrubRate)
	}
	total := exp.Predictive.UnmitigatedConns + exp.Predictive.ScrubbedConns + exp.Predictive.LeakedConns
	if total == 0 {
		t.Error("no attack connections accounted")
	}
}

func TestRunDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("builds its own world and refits NAR models")
	}
	res, err := RunDrift(Config{Seed: 77, Scale: 0.12, HorizonDays: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Family != "DirtJumper" || res.LostAS == 0 {
		t.Fatalf("malformed result %+v", res)
	}
	// The takedown must produce a visible error spike...
	if res.SpikeErr < 2*res.PreErr {
		t.Errorf("spike %.4f should exceed 2x pre %.4f", res.SpikeErr, res.PreErr)
	}
	// ...from which the periodically refitted model recovers...
	if res.RecoverySteps < 0 {
		t.Error("model never re-converged")
	}
	if res.PostErr > res.SpikeErr {
		t.Errorf("post error %.4f should be below the spike %.4f", res.PostErr, res.SpikeErr)
	}
	// ...while a static predictor stays broken (the paper's critique).
	if res.StaticPostErr < 4*res.PostErr && res.StaticPostErr < 0.05 {
		t.Errorf("static predictor error %.4f suspiciously low", res.StaticPostErr)
	}
}

func TestReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment end to end")
	}
	env := sharedEnv(t)
	report, err := Report(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{
		"# Reproduction report",
		"## Table I",
		"## Figure 1",
		"## Figure 2",
		"## Figures 3 & 4",
		"## §VII-A",
		"## Figure 5",
		"## Ablations",
	} {
		if !strings.Contains(report, section) {
			t.Errorf("report missing section %q", section)
		}
	}
	// Every family appears in the Table I section.
	for _, fam := range env.Dataset.Families() {
		if !strings.Contains(report, fam) {
			t.Errorf("report missing family %s", fam)
		}
	}
	if strings.Contains(report, "NaN") {
		t.Error("report contains NaN values")
	}
}

// TestLeakGuardCollectSamples pins that a walk-forward row is built before
// its label is seen: changing the labelled attack's Start, duration or
// magnitude leaves that attack's own row unchanged.
func TestLeakGuardCollectSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("walks the whole dataset four times")
	}
	env := sharedEnv(t)
	cfg := Figure34Config{}.withDefaults()
	base, _, err := collectSamples(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A sample whose target has history, so its context is not all zeros.
	k := len(base) / 2
	for base[k].F.PrevGapSec == 0 {
		k++
	}
	want := base[k]
	for _, tc := range []struct {
		name    string
		perturb func(a *trace.Attack)
	}{
		{"start", func(a *trace.Attack) { a.Start = a.Start.Add(97 * time.Minute) }},
		{"duration", func(a *trace.Attack) { a.DurationSec = 3*a.DurationSec + 1 }},
		{"magnitude", func(a *trace.Attack) { a.Bots = append(a.Bots[:len(a.Bots):len(a.Bots)], a.Bots...) }},
	} {
		attacks := append([]trace.Attack(nil), env.Dataset.Attacks...)
		tc.perturb(&attacks[want.order])
		mod := *env
		mod.Dataset = &trace.Dataset{Attacks: attacks}
		got, _, err := collectSamples(&mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range got {
			if s.order != want.order {
				continue
			}
			found = true
			if s.F != want.F {
				t.Errorf("%s: perturbing attack %d changed its own row:\n got %+v\nwant %+v", tc.name, want.order, s.F, want.F)
			}
		}
		if !found {
			t.Fatalf("%s: attack %d has no sample after perturbation", tc.name, want.order)
		}
	}
}
