package serve_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// replayConfig is perfbench's serve.Config (ddosd at its flag defaults)
// with detection off.
func replayConfig() serve.Config {
	return serve.Config{
		Shards:         64,
		Window:         256,
		RefitEvery:     8,
		QueueDepth:     256,
		Seed:           1,
		Spatial:        core.SpatialConfig{Train: nn.TrainConfig{Epochs: 120}},
		TraceCapacity:  64,
		AccuracyWindow: 512,
		MaxBatchBytes:  8 << 20,

		IncrementalRefit: true,
		FullRefitEvery:   8,
		DriftRatio:       4,
		PromoWindow:      64,
		PromoMinSamples:  16,
		PromoMargin:      0.05,
	}
}

// The replay's shape: perfbench's mixed-json stream (64 targets at
// TimeCompress 1500, 16384 history records), then one-record ingests at
// mixed-json's rate, scoring every arrival after the first replayScoreFrom.
const (
	replayTargets   = 64
	replayHistory   = 16384
	replayArrivals  = 8000
	replayRate      = 400 // arrivals per second
	replayScoreFrom = 2000
)

// BenchmarkServedAccuracyReplay measures what a client is served, not
// what a model scores offline: each arrival is judged against the
// forecast Service.Forecast answered for its target just before the
// arrival was ingested, with the refit plane running in the background
// as it does under load. It reports the served duration's mean relative
// error (dur_relerr) and the timestamp hit rate (hit_rate) over arrivals
// replayScoreFrom+1 to replayArrivals, and the refit work the service ran
// over all the arrivals, as counted on its /metrics: fold-ins
// (ddosd_refit_incremental_total), full refits (ddosd_refit_full_total,
// every reason) and NAR topology searches (ddosd_refit_searches_total).
// Refits race the arrivals, so two
// runs of one seed differ; compare commits over the six seeds, in rounds
// that alternate their order. A run takes about 20 s per seed:
//
//	go test -run '^$' -bench BenchmarkServedAccuracyReplay -benchtime 1x ./internal/serve
func BenchmarkServedAccuracyReplay(b *testing.B) {
	for seed := uint64(1); seed <= 6; seed++ {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			var s obs.Summary
			var work refitWork
			for i := 0; i < b.N; i++ {
				s, work = servedAccuracyReplay(b, seed)
			}
			b.ReportMetric(s.Duration.MeanRelErr, "dur_relerr")
			b.ReportMetric(s.Timestamp.Rate, "hit_rate")
			b.ReportMetric(float64(s.Samples), "scored")
			b.ReportMetric(work.foldIns, "fold_ins")
			b.ReportMetric(work.fullRefits, "full_refits")
			b.ReportMetric(work.searches, "searches")
		})
	}
}

// servedAccuracyReplay runs one replay on seed's stream and returns the
// served forecasts' summary and the refit work the arrivals caused.
func servedAccuracyReplay(b *testing.B, seed uint64) (obs.Summary, refitWork) {
	b.Helper()
	svc := serve.New(replayConfig())
	defer svc.Close()
	gen := loadgen.NewGenerator(loadgen.GenConfig{Targets: replayTargets, Seed: seed, TimeCompress: 1500})
	hist := make([]trace.Attack, replayHistory)
	for i := range hist {
		hist[i] = *gen.Next()
	}
	if _, err := svc.WarmStart(&trace.Dataset{Attacks: hist}); err != nil {
		b.Fatal(err)
	}

	acc := obs.NewAccuracy(obs.AccuracyConfig{Window: replayArrivals - replayScoreFrom})
	acc.Model("served")
	before := scrapeRefitWork(svc)
	shed := 0
	t0 := time.Now()
	for i := 0; i < replayArrivals; i++ {
		a := gen.Next()
		time.Sleep(time.Until(t0.Add(time.Duration(i) * time.Second / replayRate)))
		if fc, err := svc.Forecast(a.TargetAS); err == nil && i >= replayScoreFrom {
			acc.Score("served", obs.Prediction{
				Magnitude: fc.Magnitude, DurationSec: fc.DurationSec, Hour: fc.Hour, Day: fc.Day,
			}, obs.Outcome{
				Magnitude: float64(a.Magnitude()), DurationSec: a.DurationSec,
				Hour: float64(a.Hour()), Day: float64(a.Day()),
			})
		}
		if _, err := svc.IngestBatch([]trace.Attack{*a}, nil); errors.Is(err, serve.ErrShedding) {
			shed++
		} else if err != nil {
			b.Fatal(err)
		}
	}
	work := scrapeRefitWork(svc).minus(before)
	if shed > 0 {
		b.Logf("seed %d: %d of %d arrivals shed", seed, shed, replayArrivals)
	}
	return acc.Summary("served"), work
}

// refitWork is the refit plane's work counters as /metrics exposes them.
type refitWork struct {
	foldIns, fullRefits, searches float64
}

func (w refitWork) minus(o refitWork) refitWork {
	return refitWork{w.foldIns - o.foldIns, w.fullRefits - o.fullRefits, w.searches - o.searches}
}

// scrapeRefitWork reads the refit counters off svc's /metrics, summing
// ddosd_refit_full_total over its reasons.
func scrapeRefitWork(svc *serve.Service) refitWork {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var w refitWork
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		switch name {
		case "ddosd_refit_incremental_total":
			w.foldIns += v
		case "ddosd_refit_full_total":
			w.fullRefits += v
		case "ddosd_refit_searches_total":
			w.searches += v
		}
	}
	return w
}
