package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/trace"
)

// irregularAttacks builds n chronological attacks on one target whose
// revisit gaps, hours and magnitudes vary, so every field of the
// spatiotemporal context moves from one attack to the next.
func irregularAttacks(as astopo.AS, idBase, n int) []trace.Attack {
	start := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]trace.Attack, n)
	for i := range out {
		start = start.Add(time.Duration(2+(i*7)%5)*time.Hour + time.Duration((i*13)%50)*time.Minute)
		out[i] = trace.Attack{
			ID:          idBase + i + 1,
			Family:      "DirtJumper",
			Start:       start,
			DurationSec: float64(600 + 60*(i%5)),
			TargetIP:    astopo.IPv4(uint32(as)<<8 | uint32(i%7)),
			TargetAS:    as,
			Bots:        make([]astopo.IPv4, 3+(i*3)%7),
		}
	}
	return out
}

// TestLeakGuardSTSamples pins that a training row is built before its
// label is seen: changing the labelled attack's Start, duration or
// magnitude leaves that attack's own row unchanged. It runs with the
// prefix grid-searching its topology, with a carried topology the grid
// would not pick, and with that topology warm-started from the prefix
// network of a previous generation fitted on the same data. The
// perturbation reaches that previous generation too, so the row stays
// unchanged only if nothing its prefix trained on is a labelled record.
func TestLeakGuardSTSamples(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	window := irregularAttacks(as, 0, 40)
	fitEnd := int(stFitFrac * float64(len(window)))
	const j = 30 // a labelled attack inside the walk
	carried := core.Topology{Delays: 3, Hidden: 3}
	carriedTopo := core.SpatialTopology{Duration: carried, Hour: carried, Day: carried}
	for _, tc := range []struct {
		name string
		topo core.SpatialTopology
		warm bool
	}{
		{"grid", core.SpatialTopology{}, false},
		{"carried", carriedTopo, false},
		{"carried warm", carriedTopo, true},
	} {
		rows := func(data []trace.Attack) []core.STSample {
			var from prefixModel
			if tc.warm {
				_, from = stSamples(as, data[:36], tc.topo, prefixModel{}, cfg)
				if from.sm == nil {
					t.Fatalf("%s: no previous prefix", tc.name)
				}
			}
			got, _ := stSamples(as, data, tc.topo, from, cfg)
			return got
		}
		base := rows(window)
		if len(base) != len(window)-fitEnd {
			t.Fatalf("%s: %d samples, want %d", tc.name, len(base), len(window)-fitEnd)
		}
		if cold, _ := stSamples(as, window, tc.topo, prefixModel{}, cfg); tc.warm && cold[j-fitEnd].F == base[j-fitEnd].F {
			t.Fatalf("%s: the warm prefix builds the cold prefix's row; the case does not exercise the start", tc.name)
		}
		want := base[j-fitEnd].F
		for _, p := range []struct {
			name    string
			perturb func(a *trace.Attack)
		}{
			{"start", func(a *trace.Attack) { a.Start = a.Start.Add(97 * time.Minute) }},
			{"duration", func(a *trace.Attack) { a.DurationSec = 3*a.DurationSec + 1 }},
			{"magnitude", func(a *trace.Attack) { a.Bots = make([]astopo.IPv4, 2*len(a.Bots)+1) }},
		} {
			mod := append([]trace.Attack(nil), window...)
			p.perturb(&mod[j])
			if got := rows(mod); got[j-fitEnd].F != want {
				t.Errorf("%s, %s: perturbing attack %d changed its own row:\n got %+v\nwant %+v", tc.name, p.name, j, got[j-fitEnd].F, want)
			}
		}
	}
}

// TestLeakGuardPrefixFence: a prefix starts from the previous prefix's
// networks only while everything that prefix's chain trained on sorts
// strictly before the first record the walk labels. An out-of-order
// arrival that shifts an already-trained record to window[fitEnd] makes
// the prefix train cold; an in-order arrival keeps it warm. A warm
// prefix's chain has seen the later of its own newest record and the
// previous chain's.
func TestLeakGuardPrefixFence(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	topo := core.SpatialTopology{Duration: core.Topology{Delays: 3, Hidden: 3}, Hour: core.Topology{Delays: 3, Hidden: 3}, Day: core.Topology{Delays: 3, Hidden: 3}}
	attacks := irregularAttacks(as, 0, 41)
	prevWin := attacks[:40]
	_, from := stSamples(as, prevWin, topo, prefixModel{}, cfg)
	if from.sm == nil || !from.seen.Equal(prevWin[23].Start) {
		t.Fatalf("previous prefix %+v, want one that saw through attack 23", from)
	}
	late := attacks[10]
	late.ID, late.Start = 9999, attacks[10].Start.Add(time.Minute)
	outOfOrder := append(append(append([]trace.Attack(nil), prevWin[:11]...), late), prevWin[11:]...)
	newer := from // a chain that trained on a record the window no longer holds
	newer.seen = attacks[24].Start.Add(-time.Second)
	for _, tc := range []struct {
		name     string
		window   []trace.Attack
		from     prefixModel
		warm     bool
		wantSeen time.Time
	}{
		{"in order", attacks, from, true, attacks[23].Start},
		{"out of order", outOfOrder, from, false, outOfOrder[23].Start},
		{"chain newer than the prefix", attacks, newer, true, newer.seen},
	} {
		fitEnd := int(stFitFrac * float64(len(tc.window)))
		if reached := !tc.from.seen.Before(tc.window[fitEnd].Start); reached == tc.warm {
			t.Fatalf("%s: chain reaching window[fitEnd] is %v; the case is mis-built", tc.name, reached)
		}
		_, got := stSamples(as, tc.window, topo, tc.from, cfg)
		_, cold := stSamples(as, tc.window, topo, prefixModel{}, cfg)
		if isCold := bytes.Equal(mustJSON(t, got.sm), mustJSON(t, cold.sm)); isCold == tc.warm {
			t.Errorf("%s: prefix trained cold = %v, want %v", tc.name, isCold, !tc.warm)
		}
		if !got.seen.Equal(tc.wantSeen) {
			t.Errorf("%s: chain saw through %v, want %v", tc.name, got.seen, tc.wantSeen)
		}
	}
}

// TestForecastRowParity pins train/serve parity: after a fit, the row the
// forecast is computed from is the row the walk step builds for the next
// unseen attack, from the serving models and a context that observed the
// fit window.
func TestForecastRowParity(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	cfg.MinSTWindow = 24
	attacks := irregularAttacks(as, 0, 41)
	window, next := attacks[:40], &attacks[40]
	tm, err := fitTarget(nil, as, window, uint64(len(window)), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tm.ST == nil {
		t.Fatal("no spatiotemporal tree")
	}
	p := tm.computePreds()
	served := core.STRow(tm.Temporal, tm.Spatial, tm.Ctx, tm.AS)

	var ctx core.ContextTracker
	for i := range window {
		ctx.Observe(&window[i])
	}
	row := core.WalkStep(tm.Temporal, tm.Spatial, &ctx, as, next).F
	if row != served {
		t.Fatalf("forecast row differs from the walk step's:\nforecast %+v\nwalk     %+v", served, row)
	}
	if p.STHour != tm.ST.PredictHour(&row) || p.STDay != tm.ST.PredictDay(&row) ||
		p.STDur != max(0, tm.ST.PredictDuration(&row)) || p.STMag != max(0, tm.ST.PredictMagnitude(&row)) {
		t.Fatalf("forecast ST outputs %+v are not the tree's outputs on the walk row", p)
	}
}

// TestLegacySnapshotForecasts loads a snapshot written while the frozen
// context was a serve type (serve.STContext) and checks it forecasts
// exactly what the serve package forecast from it then. Both files come
// from one run: two irregularAttacks targets of 50 records ingested under
// testConfig with MinSTWindow 24 and promotion disabled, so every measure
// is served by the spatiotemporal tree.
func TestLegacySnapshotForecasts(t *testing.T) {
	f, err := os.Open("testdata/legacy_ctx_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := NewRegistry()
	if err := reg.ReadSnapshot(f); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/legacy_ctx_forecasts.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []*Forecast
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != reg.Size() {
		t.Fatalf("%d recorded forecasts for %d targets", len(want), reg.Size())
	}
	ctxMatters := false
	for _, w := range want {
		got, err := reg.Forecast(w.TargetAS)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(w)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("AS%d forecast changed:\n got %s\nwant %s", w.TargetAS, gotJSON, wantJSON)
		}
		// The fixture must exercise the context: with it zeroed, some
		// forecast moves.
		tm, _ := reg.Lookup(w.TargetAS)
		bare := &TargetModels{AS: tm.AS, Temporal: tm.Temporal, Spatial: tm.Spatial, ST: tm.ST}
		p, q := tm.computePreds(), bare.computePreds()
		if p.STHour != q.STHour || p.STDay != q.STDay || p.STDur != q.STDur || p.STMag != q.STMag {
			ctxMatters = true
		}
	}
	if !ctxMatters {
		t.Fatal("zeroing the snapshot's context changes no forecast; the fixture does not exercise it")
	}
}
