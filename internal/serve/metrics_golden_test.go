package serve

// Golden-file test for the daemon's /metrics exposition: the exact bytes
// ddosd serves for a fixed instrument state. Pins metric names, HELP/TYPE
// lines, bucket bounds, and formatting — a renamed metric or a format
// regression breaks dashboards silently, so it must break this test
// loudly instead. Refresh with:
//
//	go test ./internal/serve -run TestMetricsGolden -update-golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/detect"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func TestMetricsGoldenExposition(t *testing.T) {
	tel := newTelemetry(nil)

	// Exercise every instrument with fixed values so the rendered counts,
	// sums, and cumulative buckets are deterministic.
	tel.ingestRecords.Add(1200)
	tel.ingestDups.Add(34)
	tel.ingestShed.Add(5)
	for _, v := range []float64{0.0002, 0.0004, 0.003, 0.003} {
		tel.ingestSeconds.Observe(v)
	}
	tel.forecasts.Add(900)
	tel.forecastMisses.Add(11)
	for _, v := range []float64{0.00005, 0.0001, 0.02} {
		tel.forecastSecs.Observe(v)
	}
	tel.refitsDone.Add(60)
	tel.refitErrors.Add(2)
	tel.refitsDropped.Add(1)
	for _, v := range []float64{0.04, 0.3, 7.5} {
		tel.refitSeconds.Observe(v)
	}
	tel.refitLag.Set(3)
	tel.targetsKnown.Set(16)
	tel.targetsServed.Set(14)
	tel.targetsEvicted.Add(2)
	tel.refitIncremental.Add(45)
	tel.promotions.With(ModelSpatial).Add(3)
	tel.promotions.With(ModelTemporal).Inc()
	for _, v := range []float64{0.0002, 0.004} {
		tel.observeStage(StageIngest, v)
	}
	tel.observeStage(StageFit, 0.25)
	tel.onScore(ModelST, obs.Summary{
		Samples:   40,
		Magnitude: obs.MeasureSummary{Samples: 40, MeanRelErr: 0.25},
		Duration:  obs.MeasureSummary{Samples: 40, MeanRelErr: 0.5},
		Timestamp: obs.HitSummary{Samples: 40, Rate: 0.625},
	})
	tel.onScore(ModelAlwaysSame, obs.Summary{
		Samples:   40,
		Magnitude: obs.MeasureSummary{Samples: 40, MeanRelErr: 1.5},
		Duration:  obs.MeasureSummary{Samples: 40, MeanRelErr: 2},
		Timestamp: obs.HitSummary{Samples: 40, Rate: 0.125},
	})
	tel.detRecords.Add(500)
	tel.detStale.Add(7)
	tel.onDetectAlert(detect.Alert{Kind: detect.KindRate}, 1)
	tel.onDetectAlert(detect.Alert{Kind: detect.KindEntropy}, 2)
	tel.onDetectAlert(detect.Alert{Kind: detect.KindRate, Cleared: true}, 1)
	tel.onDetectAlert(detect.Alert{Kind: detect.KindEntropy, Cleared: true}, 0)
	// A hostile label value through the vec pins the escaping rules for
	// backslash, quote, and newline in CounterVec children.
	tel.detAlerts.With("bad\\label\"with\nnewline").Inc()

	var got bytes.Buffer
	tel.reg.WriteText(&got)

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/metrics exposition drifted from %s.\n--- got ---\n%s--- want ---\n%s",
			path, got.Bytes(), want)
	}
}
