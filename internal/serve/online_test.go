package serve

// Tests for the online model layer (DESIGN.md §15): incremental refits,
// champion/challenger promotion, bounded-store eviction, and the snapshot
// codec carrying the new provenance.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ingestAllSync ingests records one at a time, draining the refit queue
// after each, so refit boundaries (and therefore champion decisions) are
// deterministic for a fixed stream.
func ingestAllSync(t *testing.T, svc *Service, attacks []trace.Attack) {
	t.Helper()
	for i := range attacks {
		if _, err := ingestOne(svc, &attacks[i]); err != nil {
			t.Fatalf("ingest record %d: %v", i, err)
		}
		svc.Flush()
	}
}

// --- satellite: bounded store eviction drops every layer ----------------

func TestEvictionDropsRegistryTarget(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1 // one shard: eviction order is the exact global LRU
	cfg.MaxTargets = 2
	svc := New(cfg)
	defer svc.Close()

	const a, b, c = astopo.AS(64512), astopo.AS(64513), astopo.AS(64514)
	ingestAllSync(t, svc, mkAttacks(a, 0, 12))
	ingestAllSync(t, svc, mkAttacks(b, 1000, 12))
	if _, err := svc.Forecast(a); err != nil {
		t.Fatalf("target A not published before eviction: %v", err)
	}
	sizeBefore := svc.Registry().Size()
	if sizeBefore != 2 {
		t.Fatalf("published targets = %d, want 2", sizeBefore)
	}

	// A third target over the cap evicts the least-recently-ingested (A).
	ingestAllSync(t, svc, mkAttacks(c, 2000, 12))

	if got := svc.Store().Len(); got != 2 {
		t.Fatalf("store targets = %d, want 2 after eviction", got)
	}
	if svc.Store().Known(a) {
		t.Fatal("evicted target still in the store")
	}
	if _, ok := svc.Registry().Lookup(a); ok {
		t.Fatal("evicted target still published in the registry")
	}
	if _, err := svc.Forecast(a); err == nil {
		t.Fatal("forecast for evicted target succeeded, want unknown-target error")
	}
	if got := svc.Registry().Size(); got != 2 {
		t.Fatalf("published targets = %d after eviction, want 2 (B and C)", got)
	}
	if svc.promo.Size() != 2 {
		t.Fatalf("promotion trackers = %d, want 2 after eviction", svc.promo.Size())
	}
	if svc.tel.targetsEvicted.Value() == 0 {
		t.Fatal("ddosd_targets_evicted_total not incremented")
	}
	// B and C keep serving.
	for _, as := range []astopo.AS{b, c} {
		if _, err := svc.Forecast(as); err != nil {
			t.Fatalf("surviving target AS%d lost its forecast: %v", as, err)
		}
	}
}

// --- satellite: snapshot version can never move backwards ---------------

func TestReadSnapshotVersionMonotone(t *testing.T) {
	cfg := testConfig().withDefaults()
	window := mkAttacks(64512, 0, 12)
	tm, err := fitTarget(nil, 64512, window, 12, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}

	src := NewRegistry()
	src.Publish([]*TargetModels{tm})
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	stale := buf.Bytes() // version 1

	// A registry whose version has advanced past the file must keep its
	// own clock: readers treat version as monotone.
	dst := NewRegistry()
	for i := 0; i < 5; i++ {
		dst.Publish([]*TargetModels{tm})
	}
	if v := dst.Version(); v != 5 {
		t.Fatalf("setup: version = %d, want 5", v)
	}
	if err := dst.ReadSnapshot(bytes.NewReader(stale)); err != nil {
		t.Fatal(err)
	}
	if v := dst.Version(); v != 5 {
		t.Fatalf("version moved backwards to %d after loading a stale snapshot, want 5", v)
	}

	// A fresh registry adopts the file's version unchanged.
	fresh := NewRegistry()
	if err := fresh.ReadSnapshot(bytes.NewReader(stale)); err != nil {
		t.Fatal(err)
	}
	if v := fresh.Version(); v != 1 {
		t.Fatalf("fresh registry version = %d, want 1", v)
	}
}

func TestReadSnapshotIgnoresStaleFile(t *testing.T) {
	cfg := testConfig().withDefaults()
	const oldAS, newAS = astopo.AS(64512), astopo.AS(64600)
	tmOld, err := fitTarget(nil, oldAS, mkAttacks(oldAS, 0, 12), 12, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmNew, err := fitTarget(nil, newAS, mkAttacks(newAS, 1000, 12), 12, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	src := NewRegistry()
	src.Publish([]*TargetModels{tmOld})
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	stale := buf.Bytes() // version 1, contains only oldAS

	// A registry whose clock has advanced past the file must keep its own
	// content as well as its version: installing the stale models under a
	// current version would make version-gated readers (the cluster
	// replicator) treat old content as already synced.
	dst := NewRegistry()
	for i := 0; i < 3; i++ {
		dst.Publish([]*TargetModels{tmNew})
	}
	if err := dst.ReadSnapshot(bytes.NewReader(stale)); err != nil {
		t.Fatal(err)
	}
	if v := dst.Version(); v != 3 {
		t.Fatalf("version = %d after loading a stale snapshot, want 3", v)
	}
	if _, ok := dst.Lookup(oldAS); ok {
		t.Fatal("stale snapshot's models were installed over fresher state")
	}
	if _, ok := dst.Lookup(newAS); !ok {
		t.Fatal("fresher in-memory target lost after loading a stale snapshot")
	}
}

// --- satellite: verdict-filtered refits ---------------------------------

func TestVerdictFilterImprovesBurstAccuracy(t *testing.T) {
	// A stable baseline regime plus a detector-flagged burst: the filtered
	// fit must predict the baseline magnitude at least as well as the
	// unfiltered one, which learns the burst.
	const as = astopo.AS(64512)
	attacks := mkAttacks(as, 0, 40)
	baseMag := 0.0
	for i := range attacks {
		baseMag += float64(attacks[i].Magnitude())
	}
	baseMag /= float64(len(attacks))
	burst := mkAttacks(as, 1000, 10)
	last := attacks[len(attacks)-1].Start
	for i := range burst {
		burst[i].Start = last.Add(time.Duration(i+1) * 3 * time.Hour)
		burst[i].Bots = make([]astopo.IPv4, 500+i)
		burst[i].Verdict = 1
	}
	window := append(append([]trace.Attack{}, attacks...), burst...)

	cfg := testConfig().withDefaults()
	plain, err := fitTarget(nil, as, window, uint64(len(window)), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RefitVerdictFilter = true
	filtered, err := fitTarget(nil, as, window, uint64(len(window)), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Prov.FilteredRecords != len(burst) {
		t.Fatalf("FilteredRecords = %d, want %d", filtered.Prov.FilteredRecords, len(burst))
	}
	errPlain := math.Abs(plain.Temporal.PredictMagnitude() - baseMag)
	errFiltered := math.Abs(filtered.Temporal.PredictMagnitude() - baseMag)
	if errFiltered > errPlain {
		t.Fatalf("verdict filter hurt baseline magnitude accuracy: filtered err %.2f > unfiltered %.2f",
			errFiltered, errPlain)
	}
}

func TestVerdictFilterKeepsWindowWhenMostlyAlerted(t *testing.T) {
	cfg := testConfig().withDefaults()
	cfg.RefitVerdictFilter = true
	window := mkAttacks(64512, 0, 12)
	for i := range window {
		if i >= 2 {
			window[i].Verdict = 1
		}
	}
	got, filtered := filterVerdicts(window, cfg)
	if filtered != 0 || len(got) != len(window) {
		t.Fatalf("filter engaged on a mostly-alerted window (kept %d, filtered %d); want full window",
			len(got), filtered)
	}
}

// --- incremental eligibility: the out-of-order fence --------------------

func TestIncrementalDeclinesOutOfOrderTail(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig().withDefaults()
	cfg.DriftRatio = 0 // eligibility under test, not the drift diagnostic
	base := mkAttacks(as, 0, 40)

	prev, err := fitTarget(nil, as, base[:36], 36, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prev.LastStart.IsZero() || !prev.LastStart.Equal(base[35].Start) {
		t.Fatalf("fit did not record the window's newest Start: %v", prev.LastStart)
	}

	// In-order growth: the positional tail is exactly the new records and
	// the fold-in path stays eligible.
	inc, err := fitTargetIncremental(prev, as, base, 40, 2, cfg)
	if err != nil {
		t.Fatalf("in-order tail declined: %v", err)
	}
	if inc.Prov.Refit != refitIncremental || inc.Prov.FoldedRecords != 4 {
		t.Fatalf("unexpected incremental provenance: %+v", inc.Prov)
	}

	// An out-of-order arrival inserts mid-window (the store keeps windows
	// sorted by Start), shifting an already-folded record into the
	// positional tail. The fence must decline: folding that tail would
	// double-count history and never fold the actual new record.
	oob := base[10]
	oob.ID = 9999
	oob.Start = oob.Start.Add(time.Hour) // sorts between base[10] and base[11]
	window := make([]trace.Attack, 0, 40)
	window = append(window, base[:11]...)
	window = append(window, oob)
	window = append(window, base[11:36]...)
	window = append(window, base[36:39]...)
	if _, err := fitTargetIncremental(prev, as, window, 40, 2, cfg); !errors.Is(err, errNotEligible) {
		t.Fatalf("out-of-order tail accepted: got %v, want errNotEligible", err)
	}
}

func TestIncrementalFamilyCheckUsesFilteredWindow(t *testing.T) {
	// With the verdict filter on, eligibility must compare like-for-like:
	// the previous generation's family came from the filtered window, so an
	// alerted burst whose family dominates only the unfiltered view must
	// not flip the comparison into a spurious full-refit fallback.
	const as = astopo.AS(64512)
	cfg := testConfig().withDefaults()
	cfg.DriftRatio = 0 // eligibility under test, not the drift diagnostic
	cfg.RefitVerdictFilter = true

	// Clean records on mkAttacks' regular 3-hour grid: 15 DirtJumper then
	// 14 Nitol, with the last 4 (all DirtJumper) arriving as the new tail.
	clean := mkAttacks(as, 0, 33)
	for i := 15; i < 29; i++ {
		clean[i].Family = "Nitol"
	}
	// A 24-record alerted burst squeezed between two grid points, so the
	// filtered series keeps its cadence while Blackenergy takes the
	// unfiltered plurality (24 vs 19 DirtJumper).
	burst := mkAttacks(as, 1000, 24)
	for i := range burst {
		burst[i].Family = "Blackenergy"
		burst[i].Verdict = 1
		burst[i].Start = clean[28].Start.Add(time.Duration(i+1) * time.Second)
	}
	prevWin := append(append([]trace.Attack{}, clean[:29]...), burst...)
	prev, err := fitTarget(nil, as, prevWin, uint64(len(prevWin)), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Family != "DirtJumper" {
		t.Fatalf("setup: filtered family = %q, want DirtJumper", prev.Family)
	}

	window := append(append([]trace.Attack{}, prevWin...), clean[29:]...)
	if fam := dominantFamily(window); fam != "Blackenergy" {
		t.Fatalf("setup: unfiltered family = %q, want Blackenergy", fam)
	}
	inc, err := fitTargetIncremental(prev, as, window, uint64(len(window)), 2, cfg)
	if err != nil {
		t.Fatalf("filtered-family eligibility declined: %v", err)
	}
	if inc.Family != prev.Family {
		t.Fatalf("incremental family = %q, want %q", inc.Family, prev.Family)
	}
	if inc.Prov.FoldedRecords != 4 || inc.Prov.FilteredRecords != 0 {
		t.Fatalf("unexpected incremental provenance: %+v", inc.Prov)
	}
}

// --- promotion tracker: eviction race cannot resurrect a window ---------

func TestScoreArrivalDoesNotResurrectEvictedTracker(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	const a = astopo.AS(64512)
	ingestAllSync(t, svc, mkAttacks(a, 0, 12))
	tm, ok := svc.Registry().Lookup(a)
	if !ok {
		t.Fatal("target not published")
	}
	if svc.promo.Size() != 1 {
		t.Fatalf("promotion trackers = %d, want 1", svc.promo.Size())
	}

	// An arrival for a target the store no longer knows (its eviction hook
	// already dropped the tracker) must not leave a ghost window behind:
	// evicted targets get no refits, so nothing would ever clean it up.
	ghost := mkAttacks(astopo.AS(65000), 5000, 2)
	prev := PrevStats{N: 5, LastStart: ghost[0].Start, LastMag: 4, LastDur: 660}
	svc.scoreArrival(tm, true, prev, &ghost[1])
	if got := svc.promo.Size(); got != 1 {
		t.Fatalf("promotion trackers = %d after scoring an evicted target, want 1", got)
	}
}

// --- incremental vs full: serve-level equivalence + accuracy parity -----

func TestIncrementalServeAccuracyParity(t *testing.T) {
	const as = astopo.AS(64512)
	run := func(incremental bool) (obs.Summary, *Forecast, uint64) {
		cfg := testConfig()
		cfg.IncrementalRefit = incremental
		svc := New(cfg)
		defer svc.Close()
		ingestAllSync(t, svc, mkAttacks(as, 0, 120))
		fc, err := svc.Forecast(as)
		if err != nil {
			t.Fatal(err)
		}
		return svc.Accuracy().Summary(ModelST), fc, svc.tel.refitIncremental.Value()
	}
	full, fcFull, nFull := run(false)
	inc, fcInc, nInc := run(true)
	if nFull != 0 {
		t.Fatalf("full-only service recorded %d incremental refits", nFull)
	}
	if nInc == 0 {
		t.Fatal("incremental service never took the fold-in path")
	}
	if inc.Magnitude.Samples == 0 || full.Magnitude.Samples == 0 {
		t.Fatal("no scored magnitude samples")
	}
	// Equal-or-better within noise: the fold-in path must not trade away
	// tracked accuracy for its speedup.
	if inc.Magnitude.MeanRelErr > full.Magnitude.MeanRelErr*1.10+0.05 {
		t.Fatalf("incremental magnitude accuracy regressed: %.4f vs full %.4f",
			inc.Magnitude.MeanRelErr, full.Magnitude.MeanRelErr)
	}
	for _, fc := range []*Forecast{fcFull, fcInc} {
		if math.IsNaN(fc.Magnitude) || math.IsNaN(fc.DurationSec) || fc.Magnitude < 0 {
			t.Fatalf("degenerate forecast %+v", fc)
		}
	}
	if fcInc.Provenance == nil || fcFull.Provenance == nil {
		t.Fatal("forecast missing provenance")
	}
	// The incremental service's serving generation folded from a base one.
	if fcInc.Provenance.Refit == refitIncremental && fcInc.Provenance.BaseGeneration == 0 {
		t.Fatal("incremental provenance missing base generation")
	}
}

// --- promotion: determinism and the degraded-ST acceptance path ---------

func TestPromotionDeterminism(t *testing.T) {
	const a, b = astopo.AS(64512), astopo.AS(64520)
	run := func() map[astopo.AS]Provenance {
		cfg := testConfig()
		cfg.MinSTWindow = 24 // let the tree engage
		cfg.PromoMinSamples = 4
		cfg.IncrementalRefit = true
		svc := New(cfg)
		defer svc.Close()
		as1, as2 := mkAttacks(a, 0, 60), mkAttacks(b, 5000, 60)
		for i := range as1 {
			if _, err := ingestOne(svc, &as1[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := ingestOne(svc, &as2[i]); err != nil {
				t.Fatal(err)
			}
			svc.Flush()
		}
		out := make(map[astopo.AS]Provenance)
		for _, as := range svc.Registry().Targets() {
			tm, _ := svc.Registry().Lookup(as)
			out[as] = tm.Prov
		}
		return out
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("promotion lineage diverged across identical runs:\nrun1: %+v\nrun2: %+v", first, second)
	}
}

// badSpatiotemporal fits a CART tree on garbage labels (~1e6 everywhere):
// the stand-in for a spatiotemporal stage that degraded mid-stream.
func badSpatiotemporal(t *testing.T, cfg Config) *core.Spatiotemporal {
	t.Helper()
	samples := make([]core.STSample, 16)
	for i := range samples {
		samples[i] = core.STSample{
			F: core.STFeatures{
				TmpHour: float64(i % 24), TmpDay: float64(1 + i%28), TmpMag: float64(5 + i%3),
				SpaHour: float64(i % 24), SpaDay: float64(1 + i%28), SpaDur: 600,
				TargetAS: 64512,
			},
			Hour: 0, Day: 1, Dur: 1e6, Mag: 1e6,
		}
	}
	st, err := core.FitSpatiotemporal(samples, cfg.ST)
	if err != nil {
		t.Fatalf("fit bad ST: %v", err)
	}
	return st
}

func TestDegradedSTPromotesComponentChampion(t *testing.T) {
	// Acceptance: a target whose spatiotemporal stage degrades mid-stream
	// ends with a component champion serving each measure,
	// with the promotion recorded in provenance and metrics.
	const as = astopo.AS(64512)
	cfg := testConfig()
	cfg.PromoMinSamples = 4
	cfg.PromoWindow = 64
	var bad *core.Spatiotemporal
	cfg.WrapFit = func(next FitFunc) FitFunc {
		return func(as astopo.AS, window []trace.Attack, total uint64, gen uint64, c Config) (*TargetModels, error) {
			tm, err := next(as, window, total, gen, c)
			if err != nil {
				return nil, err
			}
			// From here on, every published generation serves the degraded
			// tree: its forecasts are ~1e6, wildly off the real regime.
			tm.ST = bad
			return tm, nil
		}
	}
	svc := New(cfg)
	defer svc.Close()
	bad = badSpatiotemporal(t, svc.cfg)

	ingestAllSync(t, svc, mkAttacks(as, 0, 80))

	tm, ok := svc.Registry().Lookup(as)
	if !ok {
		t.Fatal("target not published")
	}
	champs := tm.Prov.Champions
	if champOr(champs.Magnitude) == ModelST {
		t.Fatalf("magnitude champion still the degraded ST kind: %+v", champs)
	}
	if len(tm.Prov.History) == 0 {
		t.Fatal("promotion happened but lineage is empty")
	}
	promoted := uint64(0)
	for _, kind := range promoKinds() {
		promoted += svc.tel.promotions.With(kind).Value()
	}
	if promoted == 0 {
		t.Fatal("ddosd_model_promotions_total never incremented")
	}
	// The served forecast follows the champion, not the degraded tree.
	fc, err := svc.Forecast(as)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Magnitude > 1e5 {
		t.Fatalf("served magnitude %.0f still follows the degraded tree", fc.Magnitude)
	}
	if fc.Provenance == nil || champOr(fc.Provenance.Champions.Magnitude) == ModelST {
		t.Fatalf("forecast provenance does not carry the promoted champion: %+v", fc.Provenance)
	}
	// The promotion also shows in the exposition.
	var buf bytes.Buffer
	svc.tel.reg.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("ddosd_model_promotions_total")) {
		t.Fatal("promotions metric missing from /metrics exposition")
	}
}

// --- snapshot codec: provenance round trip, legacy ensemble champions ---

// TestSnapshotRoundTripEnsembleProvenance: provenance survives the
// snapshot codec unchanged, and a snapshot written while the server had a
// stacked ensemble still loads. Its "ensemble" object is ignored, and a
// measure whose recorded champion is "ensemble" serves and reports the ST
// composition (forecast values, /forecast provenance, /statusz models)
// until the target's next refit decides again.
func TestSnapshotRoundTripEnsembleProvenance(t *testing.T) {
	cfg := testConfig().withDefaults()
	cfg.MinSTWindow = 24 // let the tree engage, so ST serves the tree's values
	window := mkAttacks(64512, 0, 64)
	tm, err := fitTarget(nil, 64512, window, 64, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tm.ST == nil {
		t.Fatal("spatiotemporal tree did not engage on a 64-record window")
	}
	tm.Prov = Provenance{
		Refit:           refitIncremental,
		BaseGeneration:  2,
		FoldedRecords:   4,
		FilteredRecords: 1,
		IncrSinceFull:   3,
		Champions:       Champions{Magnitude: "ensemble", Duration: ModelSpatial, Timestamp: "ensemble"},
		History: []Promotion{
			{Measure: MeasureMagnitude, From: ModelST, To: "ensemble", Generation: 3, Reason: "test"},
		},
	}
	src := NewRegistry()
	src.Publish([]*TargetModels{tm})
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Splice in the combiners a snapshot of that era carried.
	legacy := bytes.Replace(buf.Bytes(), []byte(`"prov":`),
		[]byte(`"ensemble":{"mag":{"Weights":[0.25,0.75],"MSE":1.5,"N":20},"hour":{"Weights":[0.2,0.3,0.5],"MSE":2.25,"N":20}},"prov":`), 1)
	if bytes.Equal(legacy, buf.Bytes()) {
		t.Fatal("snapshot has no prov key to splice an ensemble before")
	}
	svc := New(testConfig())
	defer svc.Close()
	if err := svc.Registry().ReadSnapshot(bytes.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	got, ok := svc.Registry().Lookup(64512)
	if !ok {
		t.Fatal("target missing after round trip")
	}
	if !reflect.DeepEqual(got.Prov, tm.Prov) {
		t.Fatalf("provenance mutated by codec:\ngot  %+v\nwant %+v", got.Prov, tm.Prov)
	}
	fcSrc, err := src.Forecast(64512)
	if err != nil {
		t.Fatal(err)
	}
	fcDst, err := svc.Forecast(64512)
	if err != nil {
		t.Fatal(err)
	}
	if fcSrc.Magnitude != fcDst.Magnitude || fcSrc.Hour != fcDst.Hour ||
		fcSrc.DurationSec != fcDst.DurationSec || fcSrc.Day != fcDst.Day {
		t.Fatalf("forecast drifted across snapshot round trip:\nsrc %+v\ndst %+v", fcSrc, fcDst)
	}
	srcJSON, _ := json.Marshal(fcSrc.Provenance)
	dstJSON, _ := json.Marshal(fcDst.Provenance)
	if !bytes.Equal(srcJSON, dstJSON) {
		t.Fatalf("provenance drifted across snapshot round trip:\nsrc %s\ndst %s", srcJSON, dstJSON)
	}
	// The legacy "ensemble" champions serve and report ST.
	p := got.preds()
	if fcDst.Magnitude != p.STMag || fcDst.Hour != p.STHour || fcDst.Day != p.STDay || fcDst.DurationSec != max(0, p.SpaDur) {
		t.Fatalf("served %+v, want ST magnitude/hour/day and spatial duration from %+v", fcDst, p)
	}
	want := Champions{Magnitude: ModelST, Duration: ModelSpatial, Timestamp: ModelST}
	if fcDst.Provenance.Champions != want {
		t.Fatalf("/forecast champions %+v, want %+v", fcDst.Provenance.Champions, want)
	}
	models := svc.NodeStatus().Models.Champions
	for measure, kind := range map[string]string{MeasureMagnitude: ModelST, MeasureDuration: ModelSpatial, MeasureTimestamp: ModelST} {
		if len(models[measure]) != 1 || models[measure][kind] != 1 {
			t.Fatalf("/statusz models champions %v, want %s served by %s", models, measure, kind)
		}
	}
}

// --- refit cost: full vs incremental -----------------------------------

func benchWindow(n int) []trace.Attack { return mkAttacks(64512, 0, n) }

func BenchmarkRefitFull(b *testing.B) {
	cfg := testConfig().withDefaults()
	window := benchWindow(160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitTarget(nil, 64512, window, uint64(len(window)), uint64(i+1), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCarriedFullRefit times one carried full refit at ddosd's
// defaults: the default NAR and ARIMA grids, a 256-record window, and the
// NAR topology and weights carried from a first fit, so each refit trains
// 6 networks (3 on stSamples' prefix, 3 on the window), each for
// warmEpochs from the first fit's network. -nar-epochs 120 governs only
// the first fit. BenchmarkRefitFull runs at testConfig (10 epochs,
// one-candidate grids), too small to show the cost of NAR training.
func BenchmarkCarriedFullRefit(b *testing.B) {
	cfg := Config{Seed: 1, Spatial: core.SpatialConfig{Train: nn.TrainConfig{Epochs: 120}}}.withDefaults()
	window := benchWindow(cfg.Window)
	first, err := fitTarget(nil, 64512, window, uint64(len(window)), 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitTarget(first, 64512, window, uint64(len(window)), uint64(i+2), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefitIncremental(b *testing.B) {
	cfg := testConfig().withDefaults()
	cfg.IncrementalRefit = true
	// The synthetic day-of-month ramp sits at the NAR's extrapolation edge
	// and trips the default drift threshold; a huge ratio keeps the
	// diagnostic's cost in the measurement without aborting the fold-in.
	cfg.DriftRatio = 1e9
	window := benchWindow(160)
	prev, err := fitTarget(nil, 64512, window[:152], 152, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitTargetIncremental(prev, 64512, window, 160, uint64(i+2), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIncrementalRefitCheaperThanFull gates the fold-in path's reason to
// exist: folding 8 new records into a 160-record target must cost at most
// a third of re-estimating it. TestIncrementalServeAccuracyParity checks
// that the saving does not cost tracked accuracy.
func TestIncrementalRefitCheaperThanFull(t *testing.T) {
	x := speedup(t, BenchmarkRefitIncremental, BenchmarkRefitFull)
	t.Logf("incremental refit is %.2fx cheaper than a full one", x)
	if x < 3.0 {
		t.Fatalf("incremental refit is %.2fx cheaper than a full one, want >= 3.0x", x)
	}
}
