package serve_test

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The chain's shape: one target, 256 records of history, then chainRefits
// refits, one per chainStep new records, each generation scored on the
// chainStep records that follow it.
const (
	chainHistory = 256
	chainRefits  = 200
	chainStep    = 32
)

// BenchmarkCarriedRefitChain follows one target through a long chain of
// carried full refits, each starting its networks from the generation
// before it, and asks whether the warm chain drifts away from what a
// cold fit would give. With fold-ins off and a fit window that never
// doubles, every refit after the first carries the topology. Each
// generation's spatial model and a cold core.FitSpatial of the same
// topology on the same window forecast the next chainStep records one
// step at a time. For each quarter of the chain it reports the warm/cold
// ratio of the one-step RMSE of log duration (dur_q<n>), hour (hour_q<n>)
// and day (day_q<n>); below 1 the warm chain forecasts better. About 15 s
// for the three seeds on 2 CPUs:
//
//	go test -run '^$' -bench BenchmarkCarriedRefitChain -benchtime 1x ./internal/serve
func BenchmarkCarriedRefitChain(b *testing.B) {
	for seed := uint64(1); seed <= 3; seed++ {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			var ratios [4][3]float64
			for i := 0; i < b.N; i++ {
				ratios = carriedRefitChain(b, seed)
			}
			for q, r := range ratios {
				b.ReportMetric(r[0], fmt.Sprintf("dur_q%d", q+1))
				b.ReportMetric(r[1], fmt.Sprintf("hour_q%d", q+1))
				b.ReportMetric(r[2], fmt.Sprintf("day_q%d", q+1))
			}
		})
	}
}

// carriedRefitChain runs one chain on seed's one-target stream and returns
// the warm/cold RMSE ratios per quarter and series.
func carriedRefitChain(b *testing.B, seed uint64) [4][3]float64 {
	b.Helper()
	cfg := replayConfig()
	cfg.IncrementalRefit = false
	cfg.RefitEvery = chainStep
	svc := serve.New(cfg)
	defer svc.Close()
	gen := loadgen.NewGenerator(loadgen.GenConfig{Targets: 1, Seed: seed, TimeCompress: 1500})
	stream := make([]trace.Attack, chainHistory+(chainRefits+1)*chainStep)
	for i := range stream {
		stream[i] = *gen.Next()
	}
	as := stream[0].TargetAS
	if _, err := svc.WarmStart(&trace.Dataset{Attacks: stream[:chainHistory]}); err != nil {
		b.Fatal(err)
	}
	coldCfg := serve.SpatialCfg(as, cfg)

	var warmSS, coldSS [4][3]float64
	tm := published(b, svc, as)
	for k := 0; k < chainRefits; k++ {
		lo := chainHistory + k*chainStep
		if _, err := svc.IngestBatch(stream[lo:lo+chainStep], nil); err != nil {
			b.Fatal(err)
		}
		svc.Flush()
		prevGen := tm.Generation
		if tm = published(b, svc, as); tm.Generation <= prevGen || tm.Prov.Refit != "full" || tm.Prov.SearchWindow != chainHistory {
			b.Fatalf("refit %d: generation %d after %d, provenance %+v; want a carried full refit", k+1, tm.Generation, prevGen, tm.Prov)
		}
		window, _ := svc.Store().Window(as)
		cold, err := core.FitSpatial(as, window, coldCfg, tm.Spatial.Topology(), core.SpatialStart{})
		if err != nil {
			b.Fatal(err)
		}
		warm := cloneSpatial(b, tm.Spatial) // Observe moves the lag state
		ahead := stream[lo+chainStep : lo+2*chainStep]
		q := k * 4 / chainRefits
		for i := range ahead {
			a := &ahead[i]
			for _, m := range []struct {
				sm *core.Spatial
				ss *[3]float64
			}{{warm, &warmSS[q]}, {cold, &coldSS[q]}} {
				d := math.Log1p(m.sm.PredictDuration()) - math.Log1p(a.DurationSec)
				h := m.sm.PredictHour() - float64(a.Hour())
				dy := m.sm.PredictDay() - float64(a.Day())
				m.ss[0] += d * d
				m.ss[1] += h * h
				m.ss[2] += dy * dy
				m.sm.Observe(a)
			}
		}
	}
	var ratios [4][3]float64
	for q := range ratios {
		for s := range ratios[q] {
			ratios[q][s] = math.Sqrt(warmSS[q][s] / coldSS[q][s])
		}
	}
	return ratios
}

// published returns the target's published generation.
func published(b *testing.B, svc *serve.Service, as astopo.AS) *serve.TargetModels {
	b.Helper()
	tm, ok := svc.Registry().Lookup(as)
	if !ok {
		b.Fatalf("AS%d has no published generation", as)
	}
	return tm
}

// cloneSpatial deep-copies a published spatial model through its codec.
func cloneSpatial(b *testing.B, sm *core.Spatial) *core.Spatial {
	b.Helper()
	raw, err := json.Marshal(sm)
	if err != nil {
		b.Fatal(err)
	}
	var out core.Spatial
	if err := json.Unmarshal(raw, &out); err != nil {
		b.Fatal(err)
	}
	return &out
}
