// Command ddosrepro regenerates every table and figure of the paper's
// evaluation on a synthetic world and prints text renderings alongside the
// paper's reported values.
//
// Usage:
//
//	ddosrepro [-seed N] [-scale F] [-horizon D] [-md FILE] [-exp all|table1|table2|features|fig1|fig2|fig34|fig5|compare|ablate|pipeline|drift]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/eval"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ddosrepro: ")
	var (
		seed    = flag.Uint64("seed", 42, "random seed (same seed = identical numbers)")
		scale   = flag.Float64("scale", 1.0, "Table I volume scale in (0,1]")
		horizon = flag.Int("horizon", 220, "observation window in days")
		exp     = flag.String("exp", "all", "experiment: all|table1|table2|features|fig1|fig2|fig34|fig5|compare|ablate|pipeline|drift")
		md      = flag.String("md", "", "also write a markdown report of all experiments to this path")
	)
	flag.Parse()
	if err := checkFlags(*exp, *scale, *horizon); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	t0 := time.Now()
	env, err := eval.BuildEnv(eval.Config{Seed: *seed, Scale: *scale, HorizonDays: *horizon})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d verified attacks, %d families, %d inferred ASes (built in %v)\n\n",
		env.Dataset.Len(), len(env.Dataset.Families()), env.Inferred.Len(), time.Since(t0).Round(time.Millisecond))

	// The markdown report and the text run share one result set, so each
	// experiment runs at most once.
	res := eval.NewResults(env)
	if *md != "" {
		report, err := res.Report()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*md, []byte(report), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote markdown report to %s\n\n", *md)
	}

	if *exp != "all" {
		if err := runners[*exp](res); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, name := range order {
		if err := runners[name](res); err != nil {
			log.Fatal(err)
		}
	}
}

// runners maps each -exp name but "all" to its experiment; order is the
// sequence "all" runs them in.
var (
	runners = map[string]func(*eval.Results) error{
		"table1":   printTable1,
		"table2":   func(*eval.Results) error { return printTable2() },
		"features": printFeatureAnalysis,
		"fig1":     printFigure1,
		"fig2":     printFigure2,
		"fig34":    printFigure34,
		"fig5":     printFigure5,
		"compare":  printComparison,
		"ablate":   printAblation,
		"pipeline": printPipeline,
		"drift":    printDrift,
	}
	order = []string{"table1", "table2", "features", "fig1", "fig2", "fig34", "fig5", "compare", "ablate", "pipeline", "drift"}
)

// checkFlags rejects an -exp that names no experiment, a -scale outside
// (0,1] and a -horizon below one day before main spends seconds building
// the world; eval.Config would otherwise turn such a scale or horizon into
// the paper's without a word.
func checkFlags(exp string, scale float64, horizon int) error {
	if _, ok := runners[exp]; !ok && exp != "all" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v is outside (0,1]", scale)
	}
	if horizon < 1 {
		return fmt.Errorf("-horizon %d is below 1 day", horizon)
	}
	return nil
}

func printTable1(res *eval.Results) error {
	fmt.Println("== Table I — activity level of bots (measured vs paper) ==")
	fmt.Printf("%-12s %10s %9s %7s   %10s %9s %7s\n",
		"Family", "Avg#/Day", "ActDays", "CV", "paperAvg", "paperAD", "pCV")
	for _, r := range res.Table1() {
		fmt.Printf("%-12s %10.2f %9d %7.2f   %10.2f %9d %7.2f\n",
			r.Family, r.AvgPerDay, r.ActiveDays, r.CV,
			r.PaperAvgPerDay, r.PaperActiveDays, r.PaperCV)
	}
	fmt.Println()
	return nil
}

func printTable2() error {
	fmt.Println("== Table II — main modeling variables ==")
	for _, r := range eval.RunTable2() {
		fmt.Printf("%-14s %s\n", r.Variable, r.Description)
	}
	fmt.Println()
	return nil
}

func printFeatureAnalysis(res *eval.Results) error {
	fmt.Println("== §III — feature analysis (inter-launch CDF, multistage, A^f/A^b/A^s) ==")
	results, err := eval.RunFeatureAnalysis(res.Env, nil)
	if err != nil {
		return err
	}
	for _, fa := range results {
		fmt.Printf("%s\n", fa.Family)
		fmt.Printf("  inter-launch times (same target): p10 %s, p50 %s, p90 %s, p99 %s\n",
			eval.FormatDuration(fa.InterLaunchQuantiles["p10"]),
			eval.FormatDuration(fa.InterLaunchQuantiles["p50"]),
			eval.FormatDuration(fa.InterLaunchQuantiles["p90"]),
			eval.FormatDuration(fa.InterLaunchQuantiles["p99"]))
		fmt.Printf("  30s-24h multistage window covers %.0f%% of gaps\n", 100*fa.WindowCoverage)
		fmt.Printf("  %d chains (mean length %.1f, longest %d); %.0f%% of attacks are multistage\n",
			fa.Chains, fa.MeanChainLen, fa.LongestChain, 100*fa.MultistageFrac)
		fmt.Printf("  walk-forward RMSE (ARIMA vs Always-Mean): A^f %.3g/%.3g  A^b %.3g/%.3g  A^s %.3g/%.3g\n",
			fa.AFModelRMSE, fa.AFMeanRMSE, fa.ABModelRMSE, fa.ABMeanRMSE, fa.ASModelRMSE, fa.ASMeanRMSE)
	}
	fmt.Println()
	return nil
}

func printFigure1(res *eval.Results) error {
	fmt.Println("== Figure 1 — temporal prediction of attacking magnitudes ==")
	series, err := res.Figure1()
	if err != nil {
		return err
	}
	for _, s := range series {
		fmt.Printf("%s (test n=%d)\n", s.Family, len(s.Truth))
		fmt.Printf("  truth %s\n", eval.Sparkline(s.Truth, 72))
		fmt.Printf("  pred  %s\n", eval.Sparkline(s.Pred, 72))
		fmt.Printf("  error %s\n", eval.Sparkline(absAll(s.Errors), 72))
		fmt.Printf("  RMSE %.2f bots (Always-Same baseline %.2f); Ljung-Box residual p=%.2f\n",
			s.RMSE, s.NaiveRMSE, s.GoFP)
	}
	fmt.Println()
	return nil
}

func printFigure2(res *eval.Results) error {
	fmt.Println("== Figure 2 — spatial prediction of attacking source distributions ==")
	results, err := res.Figure2()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%s (share RMSE %.4f over %d walk-forward steps)\n", r.Family, r.RMSE, len(r.Errors))
		for i, as := range r.ASes {
			fmt.Printf("  AS%-6d truth %.3f  pred %.3f\n", as, r.TruthShare[i], r.PredShare[i])
		}
		edges, counts := stats.Histogram(r.Errors, 20)
		if len(edges) > 0 {
			xs := make([]float64, len(counts))
			for i, c := range counts {
				xs[i] = float64(c)
			}
			fmt.Printf("  error distribution [%.3f..%.3f]: %s\n",
				edges[0], edges[len(edges)-1], eval.Sparkline(xs, 0))
		}
	}
	fmt.Println()
	return nil
}

func printFigure34(all *eval.Results) error {
	fmt.Println("== Figures 3 & 4 — spatiotemporal timestamp predictions ==")
	res, err := all.Figure34()
	if err != nil {
		return err
	}
	fmt.Printf("%d target-specific next-attack predictions\n", res.N)
	fmt.Println("hour-of-day distributions (Figure 3 bottom):")
	fmt.Printf("  truth           %s\n", eval.HistString(res.TruthHourHist, 0))
	for _, m := range []string{eval.ModelSpatial, eval.ModelTemporal, eval.ModelSpatiotemporal} {
		fmt.Printf("  %-15s %s\n", m, eval.HistString(res.HourHist[m], 0))
	}
	fmt.Println("day-of-month distributions (Figure 3 top):")
	fmt.Printf("  truth           %s\n", eval.HistString(res.TruthDayHist, 1))
	for _, m := range []string{eval.ModelSpatial, eval.ModelSpatiotemporal} {
		fmt.Printf("  %-15s %s\n", m, eval.HistString(res.DayHist[m], 1))
	}
	fmt.Println("RMSE (Figure 4; paper: hour 5.0/3.82/1.85, day 5.17/-/2.72) and KS distance to the true distribution:")
	fmt.Printf("  %-15s hour=%5.2f h   day=%5.2f d   KS(hour)=%.3f KS(day)=%.3f\n", eval.ModelSpatial,
		res.HourRMSE[eval.ModelSpatial], res.DayRMSE[eval.ModelSpatial], res.HourKS[eval.ModelSpatial], res.DayKS[eval.ModelSpatial])
	fmt.Printf("  %-15s hour=%5.2f h   day=%5.2f d   KS(hour)=%.3f KS(day)=%.3f (excluded from the paper's date plot)\n", eval.ModelTemporal,
		res.HourRMSE[eval.ModelTemporal], res.DayRMSE[eval.ModelTemporal], res.HourKS[eval.ModelTemporal], res.DayKS[eval.ModelTemporal])
	fmt.Printf("  %-15s hour=%5.2f h   day=%5.2f d   KS(hour)=%.3f KS(day)=%.3f\n", eval.ModelSpatiotemporal,
		res.HourRMSE[eval.ModelSpatiotemporal], res.DayRMSE[eval.ModelSpatiotemporal], res.HourKS[eval.ModelSpatiotemporal], res.DayKS[eval.ModelSpatiotemporal])
	fmt.Println()
	return nil
}

func printFigure5(all *eval.Results) error {
	fmt.Println("== Figure 5 — use cases (§VII-B) ==")
	res, err := all.Figure5()
	if err != nil {
		return err
	}
	fmt.Printf("family %s, %d test attacks\n", res.Family, res.Attacks)
	fmt.Printf("(a) AS-based filtering @90%% predicted coverage:\n")
	fmt.Printf("    predictive: recall %.2f  collateral %.2f  rules %d\n",
		res.PredictiveFiltering.Recall, res.PredictiveFiltering.Collateral, res.PredictiveFiltering.Rules)
	fmt.Printf("    reactive:   recall %.2f  collateral %.2f  rules %d\n",
		res.ReactiveFiltering.Recall, res.ReactiveFiltering.Collateral, res.ReactiveFiltering.Rules)
	fmt.Printf("(b) middlebox traversal (firewall-first before attack onset):\n")
	fmt.Printf("    proactive: %.0f%% protected (mean late-exposure %.0fs)\n",
		100*res.ProactiveProtected, res.ProactiveExposureSec)
	fmt.Printf("    reactive:  %.0f%% protected (mean exposure %.0fs)\n",
		100*res.ReactiveProtected, res.ReactiveExposureSec)
	fmt.Println()
	return nil
}

func printComparison(res *eval.Results) error {
	fmt.Println("== §VII-A — models vs Always Same / Always Mean (RMSE) ==")
	rows, err := res.Comparison()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %12s %12s %12s %12s  %s\n",
		"Family", "Feature", "ARIMA", "NAR", "AlwaysSame", "AlwaysMean", "winner")
	for _, r := range rows {
		fmt.Printf("%-12s %-12s %12.4g %12.4g %12.4g %12.4g  %s\n",
			r.Family, r.Feature,
			r.RMSE["Temporal(ARIMA)"], r.RMSE["Spatial(NAR)"],
			r.RMSE["AlwaysSame"], r.RMSE["AlwaysMean"], r.Winner)
	}
	fmt.Println()
	return nil
}

func printAblation(res *eval.Results) error {
	fmt.Println("== Ablations — spatiotemporal design choices (§VI) ==")
	rows, err := res.Ablation()
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %10s %10s %8s\n", "variant", "hourRMSE", "dayRMSE", "leaves")
	for _, r := range rows {
		fmt.Printf("%-22s %10.2f %10.2f %8d\n", r.Variant, r.HourRMSE, r.DayRMSE, r.HourLeaves)
	}
	fmt.Println()
	return nil
}

func printDrift(all *eval.Results) error {
	fmt.Println("== Concept drift — botnet takedown and model re-convergence ==")
	res, err := eval.RunDrift(all.Env.Cfg)
	if err != nil {
		return err
	}
	fmt.Printf("family %s loses AS%d at attack #%d\n", res.Family, res.LostAS, res.TakedownIdx)
	fmt.Printf("  mean |share error|: pre %.4f -> spike %.4f -> post %.4f\n",
		res.PreErr, res.SpikeErr, res.PostErr)
	if res.RecoverySteps >= 0 {
		fmt.Printf("  walk-forward model re-converged after %d attacks\n", res.RecoverySteps)
	} else {
		fmt.Printf("  walk-forward model did not re-converge in the window\n")
	}
	fmt.Printf("  a static (never-updated) predictor stays at %.4f — the paper's critique of static models\n",
		res.StaticPostErr)
	fmt.Println()
	return nil
}

func printPipeline(res *eval.Results) error {
	fmt.Println("== Defense pipeline — detect, reconfigure, scrub (end-to-end §VII-B) ==")
	exp, err := eval.RunDefensePipeline(res.Env, 5)
	if err != nil {
		return err
	}
	fmt.Printf("family %s, replayed flood with entropy detection + SDN rules\n", exp.Family)
	p, r := exp.Predictive, exp.Reactive
	fmt.Printf("  predictive rules: detected after %v, mitigating at %v, scrub rate %.0f%%, leaked %d conns\n",
		p.DetectionDelay, p.MitigationAt, 100*exp.PredictiveScrubRate, p.LeakedConns)
	fmt.Printf("  reactive rules:   detected after %v, mitigating at %v, scrub rate %.0f%%, leaked %d conns\n",
		r.DetectionDelay, r.MitigationAt, 100*exp.ReactiveScrubRate, r.LeakedConns)
	fmt.Println()
	return nil
}

func absAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		out[i] = x
	}
	return out
}
