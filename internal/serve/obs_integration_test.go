package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// Tests for the observability wiring: score-then-append accuracy
// semantics, the cached score predictions' agreement with the serving
// forecast, pipeline trace trees, and the ingest hot path's allocation
// budget.

func TestScorePredsMatchForecast(t *testing.T) {
	for _, tc := range []struct {
		name    string
		st      bool
		records int
	}{
		{"components-only", false, 12},
		{"st-engaged", true, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.st {
				cfg.MinSTWindow = 24
			}
			svc := New(cfg)
			defer svc.Close()
			attacks := mkAttacks(64512, 0, tc.records)
			for i := range attacks {
				if _, err := ingestOne(svc, &attacks[i]); err != nil {
					t.Fatal(err)
				}
			}
			svc.Flush()
			tm, ok := svc.reg.Lookup(64512)
			if !ok {
				t.Fatal("no published models after flush")
			}
			if tc.st && tm.ST == nil {
				t.Fatal("spatiotemporal tree did not engage")
			}
			fc, err := svc.Forecast(64512)
			if err != nil {
				t.Fatal(err)
			}
			p := tm.preds()
			// The served ("st") prediction must be byte-identical to what
			// /forecast returns, tree or no tree.
			if p.STMag != fc.Magnitude || p.STDur != fc.DurationSec ||
				p.STHour != fc.Hour || p.STDay != fc.Day {
				t.Fatalf("scorePreds ST (%v %v %v %v) != forecast (%v %v %v %v)",
					p.STMag, p.STDur, p.STHour, p.STDay,
					fc.Magnitude, fc.DurationSec, fc.Hour, fc.Day)
			}
			// Component predictions come straight from the fitted models.
			if p.TmpHour != tm.Temporal.PredictHour() || p.TmpDay != tm.Temporal.PredictDay() ||
				p.TmpMag != tm.Temporal.PredictMagnitude() {
				t.Fatalf("temporal preds drifted: %+v", p)
			}
			if p.SpaDur != tm.Spatial.PredictDuration() || p.SpaHour != tm.Spatial.PredictHour() ||
				p.SpaDay != tm.Spatial.PredictDay() {
				t.Fatalf("spatial preds drifted: %+v", p)
			}
		})
	}
}

func TestIngestScoringSemantics(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	acc := svc.Accuracy()
	attacks := mkAttacks(64512, 0, 12)

	// First record for a fresh target: nothing to score against.
	if _, err := ingestOne(svc, &attacks[0]); err != nil {
		t.Fatal(err)
	}
	if got := acc.Summary(ModelAlwaysSame).Samples; got != 0 {
		t.Fatalf("first record scored %d times, want 0", got)
	}

	// Second in-order record: baselines score, model kinds do not (no
	// forecast was published before it arrived).
	if _, err := ingestOne(svc, &attacks[1]); err != nil {
		t.Fatal(err)
	}
	if got := acc.Summary(ModelAlwaysSame).Samples; got != 1 {
		t.Fatalf("always_same scored %d, want 1", got)
	}
	if got := acc.Summary(ModelAlwaysMean).Samples; got != 1 {
		t.Fatalf("always_mean scored %d, want 1", got)
	}
	if got := acc.Summary(ModelST).Samples; got != 0 {
		t.Fatalf("st scored %d before any publish, want 0", got)
	}

	// A duplicate is dropped before scoring.
	if ok, _ := ingestOne(svc, &attacks[1]); ok {
		t.Fatal("duplicate accepted")
	}
	if got := acc.Summary(ModelAlwaysSame).Samples; got != 1 {
		t.Fatalf("duplicate scored: samples %d, want 1", got)
	}

	// An out-of-order (backfilled) record was never "the next attack" any
	// forecast predicted: appended, not scored.
	if _, err := ingestOne(svc, &attacks[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(svc, &attacks[2]); err != nil { // starts before [3]
		t.Fatal(err)
	}
	if got := acc.Summary(ModelAlwaysSame).Samples; got != 2 {
		t.Fatalf("out-of-order record scored: samples %d, want 2", got)
	}

	// Publish models, then stream in-order arrivals: every model kind
	// scores, and the NaN measures stay skipped (the temporal model has no
	// duration output, the spatial model no magnitude output).
	for i := 4; i < len(attacks); i++ {
		if _, err := ingestOne(svc, &attacks[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush()
	last := attacks[len(attacks)-1].Start
	more := mkAttacks(64512, 100, 6)
	for i := range more {
		more[i].Start = last.Add(time.Duration(i+1) * 3 * time.Hour)
		if _, err := ingestOne(svc, &more[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, model := range []string{ModelTemporal, ModelSpatial, ModelST} {
		if got := acc.Summary(model).Samples; got < uint64(len(more)) {
			t.Fatalf("%s scored %d arrivals, want >= %d", model, got, len(more))
		}
	}
	if got := acc.Summary(ModelTemporal).Duration.Samples; got != 0 {
		t.Fatalf("temporal duration scored %d times despite NaN prediction", got)
	}
	if got := acc.Summary(ModelSpatial).Magnitude.Samples; got != 0 {
		t.Fatalf("spatial magnitude scored %d times despite NaN prediction", got)
	}
	if got := acc.Summary(ModelST).Magnitude.Samples; got == 0 {
		t.Fatal("st magnitude never scored")
	}

	// The snapshot carries every registered model kind.
	snap := acc.Snapshot()
	for _, model := range accuracyModels() {
		if _, ok := snap.Models[model]; !ok {
			t.Fatalf("snapshot missing model %q", model)
		}
	}
}

func TestScoreArrivalDoesNotAllocate(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	attacks := mkAttacks(64512, 0, 12)
	for i := range attacks {
		if _, err := ingestOne(svc, &attacks[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush()
	tm, ok := svc.reg.Lookup(64512)
	if !ok {
		t.Fatal("no published models")
	}
	tm.preds() // warm the per-generation prediction cache
	prev := PrevStats{
		N: 5, LastStart: attacks[10].Start, LastMag: 4, LastDur: 660,
		MeanMag: 5, MeanDur: 700, MeanHour: 9, MeanDay: 2,
	}
	a := attacks[11]
	if n := testing.AllocsPerRun(200, func() {
		svc.scoreArrival(tm, true, prev, &a)
	}); n != 0 {
		t.Fatalf("scoreArrival allocates %v times per call, want 0", n)
	}
}

func BenchmarkIngestScoring(b *testing.B) {
	svc := New(testConfig())
	defer svc.Close()
	attacks := mkAttacks(64512, 0, 12)
	for i := range attacks {
		if _, err := ingestOne(svc, &attacks[i]); err != nil {
			b.Fatal(err)
		}
	}
	svc.Flush()
	tm, ok := svc.reg.Lookup(64512)
	if !ok {
		b.Fatal("no published models")
	}
	prev := PrevStats{
		N: 5, LastStart: attacks[10].Start, LastMag: 4, LastDur: 660,
		MeanMag: 5, MeanDur: 700, MeanHour: 9, MeanDay: 2,
	}
	a := attacks[11]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.scoreArrival(tm, true, prev, &a)
	}
}

func TestPipelineTracesAndStageHistograms(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := postAttacks(t, srv.URL, mkAttacks(64512, 0, 12))
	resp.Body.Close()
	svc.Flush()
	fr, err := http.Get(srv.URL + "/forecast?target=64512")
	if err != nil {
		t.Fatal(err)
	}
	fr.Body.Close()

	roots := map[string]obs.SpanJSON{}
	for _, tr := range svc.Tracer().Snapshot() {
		if _, seen := roots[tr.Name]; !seen {
			roots[tr.Name] = tr
		}
	}
	ing, ok := roots[StageIngest]
	if !ok {
		t.Fatalf("no ingest trace recorded; roots: %v", keys(roots))
	}
	children := map[string]bool{}
	for _, c := range ing.Children {
		children[c.Name] = true
	}
	for _, want := range []string{StageAppend, StageScore, StageSchedule} {
		if !children[want] {
			t.Fatalf("ingest trace missing %q child: %+v", want, ing)
		}
	}
	ref, ok := roots[StageRefit]
	if !ok {
		t.Fatalf("no refit trace recorded; roots: %v", keys(roots))
	}
	var fits, publishes int
	for _, c := range ref.Children {
		switch c.Name {
		case StageFit:
			fits++
		case StagePublish:
			publishes++
		}
	}
	if fits < 1 || publishes != 1 {
		t.Fatalf("refit trace has %d fit / %d publish children: %+v", fits, publishes, ref)
	}
	if _, ok := roots[StageForecast]; !ok {
		t.Fatalf("no forecast trace recorded; roots: %v", keys(roots))
	}

	// Stage histograms observed each stage at least once; the attached
	// (pre-measured) ingest children must not double-count: append was
	// observed once for the request's one ingest call, not once more by
	// the span's Attach.
	counts := map[string]uint64{}
	for stage, h := range svc.tel.stages {
		counts[stage] = h.Count()
	}
	for _, stage := range []string{StageIngest, StageAppend, StageScore, StageSchedule, StageFit, StagePublish, StageRefit, StageForecast} {
		if counts[stage] == 0 {
			t.Fatalf("stage %q never observed: %v", stage, counts)
		}
	}
	if counts[StageAppend] != 1 {
		t.Fatalf("append observed %d times for one 12-record request (Attach double-count?)", counts[StageAppend])
	}
	if counts[StageIngest] != 1 {
		t.Fatalf("ingest observed %d times for 1 request", counts[StageIngest])
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := postAttacks(t, srv.URL, mkAttacks(64512, 0, 12))
	resp.Body.Close()
	svc.Flush()

	ar, err := http.Get(srv.URL + "/accuracy")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[obs.AccuracySnapshot](t, ar)
	if len(snap.Models) != len(accuracyModels()) {
		t.Fatalf("/accuracy models %v, want %d kinds", snap.Models, len(accuracyModels()))
	}
	if snap.Models[ModelAlwaysSame].Samples == 0 {
		t.Fatal("/accuracy shows zero always_same samples after 12 in-order records")
	}

	tr, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	traces := decodeBody[obs.TracesSnapshot](t, tr)
	if len(traces.Traces) == 0 {
		t.Fatal("/debug/traces empty after traffic")
	}
	found := false
	for _, root := range traces.Traces {
		if root.Name == StageIngest && len(root.Children) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("/debug/traces has no complete ingest span tree")
	}

	br, err := http.Get(srv.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var bi obs.BuildInfoJSON
	if err := json.NewDecoder(br.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if bi.GoVersion == "" {
		t.Fatal("/buildinfo missing go version")
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
