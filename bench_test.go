package ddos

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation
// benchmarks for the design choices the spatiotemporal model depends on.
// Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks share one generated world (benchWorld) so the expensive
// dataset generation is amortized; BenchmarkDatasetGeneration measures it
// separately.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"time"

	"repro/internal/arima"
	"repro/internal/astopo"
	"repro/internal/cart"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/trace"
)

// benchScale keeps a single bench iteration in the hundreds of
// milliseconds; the experiment shapes are scale-invariant (see
// EXPERIMENTS.md for full-scale numbers).
const benchScale = 0.12

var (
	benchOnce sync.Once
	benchEnv  *eval.Env
	benchErr  error
)

func benchWorld(b *testing.B) *eval.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = eval.BuildEnv(eval.Config{Seed: 99, Scale: benchScale, HorizonDays: 200})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkDatasetGeneration measures the §II data pipeline: topology
// synthesis, attack generation, route emission, and Gao inference.
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := eval.BuildEnv(eval.Config{Seed: uint64(i + 1), Scale: 0.05, HorizonDays: 100})
		if err != nil {
			b.Fatal(err)
		}
		if env.Dataset.Len() == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkTable1ActivityLevels regenerates Table I.
func BenchmarkTable1ActivityLevels(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := eval.RunTable1(env)
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure1TemporalMagnitude regenerates Figure 1 (temporal
// prediction of attack magnitudes for the three most active families).
func BenchmarkFigure1TemporalMagnitude(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := eval.RunFigure1(env, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatal("family count")
		}
	}
}

// BenchmarkFigure2SpatialSources regenerates Figure 2 (spatial prediction
// of attacking source distributions).
func BenchmarkFigure2SpatialSources(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure2(env, []string{"DirtJumper"}, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SpatiotemporalTimestamps regenerates Figure 3 (the
// spatiotemporal timestamp predictions; Figure 4 derives from the same
// run).
func BenchmarkFigure3SpatiotemporalTimestamps(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure34(env, eval.Figure34Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.N == 0 {
			b.Fatal("no predictions")
		}
	}
}

// BenchmarkFigure4ErrorDistributions measures just the error-distribution
// assembly of Figure 4 (reusing a cached Figure 3 run would hide the cost
// structure, so it re-runs the experiment and touches the error slices).
func BenchmarkFigure4ErrorDistributions(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFigure34(env, eval.Figure34Config{})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, e := range res.HourErrors[eval.ModelSpatiotemporal] {
			sum += e
		}
		_ = sum
	}
}

// BenchmarkComparisonBaselines regenerates the §VII-A model-vs-baseline
// RMSE comparison.
func BenchmarkComparisonBaselines(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunComparison(env, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure5UseCases regenerates the §VII-B use cases.
func BenchmarkFigure5UseCases(b *testing.B) {
	env := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure5(env, eval.Figure5Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationMeanLeaves ablates the model tree's MLR leaves down to
// constant-mean leaves (the paper's Eq. 8 motivation for MLR leaves).
func BenchmarkAblationMeanLeaves(b *testing.B) {
	env := benchWorld(b)
	samples := ablationSamples(b, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.FitSpatiotemporal(samples, core.STConfig{
			Tree: cart.Config{LeafModel: cart.LeafMean},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = st.Hour.Leaves()
	}
}

// BenchmarkAblationMLRLeaves is the paired baseline for the leaf ablation.
func BenchmarkAblationMLRLeaves(b *testing.B) {
	env := benchWorld(b)
	samples := ablationSamples(b, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.FitSpatiotemporal(samples, core.STConfig{})
		if err != nil {
			b.Fatal(err)
		}
		_ = st.Hour.Leaves()
	}
}

// BenchmarkAblationNoPruning grows the model tree without the paper's 88%
// standard-deviation retention (StdDevRetain ~ 1 keeps splitting).
func BenchmarkAblationNoPruning(b *testing.B) {
	env := benchWorld(b)
	samples := ablationSamples(b, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.FitSpatiotemporal(samples, core.STConfig{
			Tree: cart.Config{StdDevRetain: 0.999},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = st.Hour.Leaves()
	}
}

// ablationSamples derives a reusable spatiotemporal training set from the
// bench world's DirtJumper series: the previous attack stands in for the
// component models, and the target-local fields come from a
// core.ContextTracker that has seen only the attacks before the label.
func ablationSamples(b *testing.B, env *eval.Env) []core.STSample {
	b.Helper()
	ds := env.Dataset
	attacks := ds.ByFamily("DirtJumper")
	if len(attacks) < 60 {
		b.Fatal("not enough attacks for ablation")
	}
	var ctx core.ContextTracker
	ctx.Observe(&attacks[0])
	samples := make([]core.STSample, 0, len(attacks)-1)
	for i := 1; i < len(attacks); i++ {
		prev, cur := &attacks[i-1], &attacks[i]
		c := ctx.Context()
		samples = append(samples, core.STSample{
			F: core.STFeatures{
				TmpHour:    float64(prev.Hour()),
				TmpDay:     float64(prev.Day()),
				PrevHour:   c.PrevHour,
				PrevDay:    c.PrevDay,
				PrevGapSec: c.PrevGapSec,
				NextDueDay: c.NextDueDay,
				AvgMag:     c.AvgMag,
				TargetAS:   float64(cur.TargetAS),
			},
			Hour: float64(cur.Hour()),
			Day:  float64(cur.Day()),
			Dur:  cur.DurationSec,
			Mag:  float64(cur.Magnitude()),
		})
		ctx.Observe(cur)
	}
	return samples
}

// --- Parallel engine ------------------------------------------------------
//
// The benchmarks below pin the speedup of the parallel evaluation engine:
// each one runs the same workload serially (GOMAXPROCS=1, where the worker
// pool degenerates to a plain loop) and at full width. The deterministic
// reductions guarantee both settings produce identical results, so the
// sub-benchmarks differ only in wall clock.

// withProcs runs fn under the given GOMAXPROCS setting.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// benchWidths returns the GOMAXPROCS settings to compare: serial and full
// machine width. On a single-CPU machine only the serial run is emitted —
// a second identical sub-benchmark would just duplicate the name.
func benchWidths() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkMeanPairwiseDistance measures the oracle's all-pairs sweep on a
// cold cache (a fresh oracle per iteration, so every per-source BFS runs).
func BenchmarkMeanPairwiseDistance(b *testing.B) {
	env := benchWorld(b)
	nodes := env.Inferred.Nodes()
	for _, procs := range benchWidths() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			withProcs(procs, func() {
				for i := 0; i < b.N; i++ {
					o := astopo.NewDistanceOracle(env.Inferred)
					mean, pairs := o.MeanPairwiseDistance(nodes)
					if pairs == 0 || mean <= 0 {
						b.Fatal("degenerate mean")
					}
				}
			})
		})
	}
}

// BenchmarkComparisonFanOut measures the §VII-A comparison's per-(family,
// feature) fan-out end to end.
func BenchmarkComparisonFanOut(b *testing.B) {
	env := benchWorld(b)
	for _, procs := range benchWidths() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			withProcs(procs, func() {
				for i := 0; i < b.N; i++ {
					rows, err := eval.RunComparison(env, 3)
					if err != nil {
						b.Fatal(err)
					}
					if len(rows) == 0 {
						b.Fatal("no rows")
					}
				}
			})
		})
	}
}

// BenchmarkSelectOrderGrid measures the ARIMA (p,q) order grid on a real
// feature series from the bench world.
func BenchmarkSelectOrderGrid(b *testing.B) {
	env := benchWorld(b)
	xs := features.MagnitudeSeries(env.Dataset.ByFamily("DirtJumper"))
	if len(xs) < 100 {
		b.Fatal("series too short")
	}
	for _, procs := range benchWidths() {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			withProcs(procs, func() {
				for i := 0; i < b.N; i++ {
					if _, err := arima.SelectOrder(xs, 4, 1, 3); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// --- Online serving -------------------------------------------------------

// serveBenchRegistry publishes n targets built from one fitted model set:
// the forecast hot path never mutates models, so sharing the fitted
// Temporal/Spatial across AS entries is safe and keeps setup O(1) in n.
func serveBenchRegistry(b *testing.B, n int) *serve.Registry {
	b.Helper()
	t0 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	attacks := make([]trace.Attack, 16)
	for i := range attacks {
		attacks[i] = trace.Attack{
			ID: i + 1, Family: "DirtJumper",
			Start:       t0.Add(time.Duration(i) * 3 * time.Hour),
			DurationSec: float64(600 + 60*(i%5)),
			TargetAS:    64512,
			Bots:        make([]astopo.IPv4, 3+i%5),
		}
	}
	tm, err := core.FitTemporal("DirtJumper", attacks, core.TemporalConfig{MaxP: 1, MaxQ: 1})
	if err != nil {
		b.Fatal(err)
	}
	sm, err := core.FitSpatial(64512, attacks, core.SpatialConfig{
		Delays: []int{2}, Hidden: []int{2}, Train: nn.TrainConfig{Epochs: 10},
	}, core.SpatialTopology{}, core.SpatialStart{})
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	batch := make([]*serve.TargetModels, n)
	for i := range batch {
		batch[i] = &serve.TargetModels{
			AS: astopo.AS(64512 + i), Family: "DirtJumper",
			Temporal: tm, Spatial: sm,
			Window: len(attacks), Generation: reg.NextGeneration(),
		}
	}
	reg.Publish(batch)
	return reg
}

// BenchmarkServeForecast pins the ddosd hot-path acceptance criterion:
// serving a forecast is one atomic snapshot load plus closed-form model
// reads — ns/op and allocs/op must stay flat as the store grows.
func BenchmarkServeForecast(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("targets=%d", n), func(b *testing.B) {
			reg := serveBenchRegistry(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fc, err := reg.Forecast(astopo.AS(64512 + i%n))
				if err != nil {
					b.Fatal(err)
				}
				if fc.Hour < 0 {
					b.Fatal("bad forecast")
				}
			}
		})
	}
}

// BenchmarkRegistryPublish measures the refit scheduler's per-fit swap:
// publishing one target's new generation copies the snapshot map, so its
// cost grows with the number of published targets.
func BenchmarkRegistryPublish(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("targets=%d", n), func(b *testing.B) {
			reg := serveBenchRegistry(b, n)
			tm, _ := reg.Lookup(64512)
			one := []*serve.TargetModels{tm}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.Publish(one)
			}
		})
	}
}

// BenchmarkServeIngest measures one-record IngestBatch calls: the sharded
// store's ingest path (window insert + dedup scan), with refits disabled
// via a high MinWindow.
func BenchmarkServeIngest(b *testing.B) {
	cfg := serve.Config{Window: 256, MinWindow: 1 << 30}
	svc := serve.New(cfg)
	defer svc.Close()
	t0 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one := [1]trace.Attack{{
			ID: i + 1, Family: "DirtJumper",
			Start:       t0.Add(time.Duration(i) * time.Minute),
			DurationSec: 600,
			TargetAS:    astopo.AS(64512 + i%64),
			Bots:        []astopo.IPv4{1, 2, 3},
		}}
		if _, err := svc.IngestBatch(one[:], nil); err != nil {
			b.Fatal(err)
		}
	}
}
