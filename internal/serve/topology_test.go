package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/trace"
)

// topologyConfig is testConfig with a real 2×2 NAR grid and the
// spatiotemporal stage on, so search refits run the grid on the
// stSamples prefix.
func topologyConfig() Config {
	cfg := testConfig().withDefaults()
	cfg.MinSTWindow = 24
	cfg.DriftRatio = 1e9 // keep fold-ins eligible on the synthetic stream
	cfg.Spatial = core.SpatialConfig{Delays: []int{2, 3}, Hidden: []int{2, 3}, Train: nn.TrainConfig{Epochs: 10}}
	return cfg
}

// offGrid is a topology topologyConfig's grid never picks, so a generation
// that still has it carried it.
var offGrid = core.Topology{Delays: 4, Hidden: 5}

// inGrid reports whether every series' topology is one of cfg's grid
// candidates.
func inGrid(topo core.SpatialTopology, cfg Config) bool {
	for _, s := range []core.Topology{topo.Duration, topo.Hour, topo.Day} {
		if !containsInt(cfg.Spatial.Delays, s.Delays) || !containsInt(cfg.Spatial.Hidden, s.Hidden) {
			return false
		}
	}
	return true
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestTopologySearchPolicy walks one target through a chain of
// generations and checks when a full refit grid-searches the NAR topology
// and when it carries the previous generation's.
func TestTopologySearchPolicy(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 100)
	// withTopology swaps prev's spatial model for one fitted on its window
	// with topo, so the next generation shows whether it carried it.
	withTopology := func(topo core.SpatialTopology) func(*TargetModels) {
		return func(prev *TargetModels) {
			sm, err := core.FitSpatial(as, attacks[:prev.Window], spatialCfg(as, cfg), topo, core.SpatialStart{})
			if err != nil {
				t.Fatal(err)
			}
			prev.Spatial = sm
		}
	}
	allOffGrid := core.SpatialTopology{Duration: offGrid, Hour: offGrid, Day: offGrid}
	// A delay count longer than the window fails the NAR fit, so the
	// duration series falls back to its mean: a zero topology.
	zeroDuration := core.SpatialTopology{Duration: core.Topology{Delays: 500, Hidden: 2}, Hour: offGrid, Day: offGrid}

	type step struct {
		name        string
		before      func(prev *TargetModels) // applied to the previous generation
		n           int                      // fit window: attacks[:n]
		incremental bool
		wantSearch  bool
		wantSince   int
		wantWindow  int // want Prov.SearchWindow
	}
	steps := []step{
		{name: "first fit searches", n: 40, wantSearch: true, wantWindow: 40},
		{name: "next full refit carries", before: withTopology(allOffGrid), n: 44, wantSince: 1, wantWindow: 40},
		{name: "incremental copies both fields", n: 48, incremental: true, wantSince: 1, wantWindow: 40},
	}
	for k := 2; k < searchEvery; k++ {
		steps = append(steps, step{name: "full refit carries", n: 48, wantSince: k, wantWindow: 40})
	}
	steps = append(steps,
		step{name: "8th full refit searches", n: 48, wantSearch: true, wantWindow: 48},
		step{name: "doubled window searches", before: withTopology(allOffGrid), n: 96, wantSearch: true, wantWindow: 96},
		step{name: "zero-topology series searches on its own", before: withTopology(zeroDuration), n: 100, wantSince: 1, wantWindow: 96},
	)

	var prev *TargetModels
	for i, st := range steps {
		if st.before != nil {
			st.before(prev)
		}
		window := attacks[:st.n]
		var tm *TargetModels
		var err error
		if st.incremental {
			tm, err = fitTargetIncremental(prev, as, window, uint64(st.n), uint64(i+1), cfg)
		} else {
			tm, err = fitTarget(prev, "", as, window, uint64(st.n), uint64(i+1), cfg)
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, st.name, err)
		}
		wantRefit := refitFull
		if st.incremental {
			wantRefit = refitIncremental
		}
		p := tm.Prov
		if p.Refit != wantRefit || p.FullRefitsSinceSearch != st.wantSince || p.SearchWindow != st.wantWindow {
			t.Fatalf("step %d (%s): refit %q, full_refits_since_search %d, search_window %d; want %q, %d, %d",
				i, st.name, p.Refit, p.FullRefitsSinceSearch, p.SearchWindow, wantRefit, st.wantSince, st.wantWindow)
		}
		if searched := p.Refit == refitFull && p.FullRefitsSinceSearch == 0; searched != st.wantSearch {
			t.Fatalf("step %d (%s): counted as a search = %v, want %v", i, st.name, searched, st.wantSearch)
		}
		topo, prevTopo := tm.Spatial.Topology(), core.SpatialTopology{}
		if prev != nil {
			prevTopo = prev.Spatial.Topology()
		}
		switch {
		case st.wantSearch:
			if !inGrid(topo, cfg) {
				t.Fatalf("step %d (%s): searched topology %+v is not a grid candidate", i, st.name, topo)
			}
		case prevTopo.Duration == (core.Topology{}):
			if !inGrid(core.SpatialTopology{Duration: topo.Duration, Hour: topo.Duration, Day: topo.Duration}, cfg) ||
				topo.Hour != prevTopo.Hour || topo.Day != prevTopo.Day {
				t.Fatalf("step %d (%s): topology %+v from %+v, want a searched duration and carried hour and day", i, st.name, topo, prevTopo)
			}
		default:
			if topo != prevTopo {
				t.Fatalf("step %d (%s): topology %+v, want the carried %+v", i, st.name, topo, prevTopo)
			}
		}
		prev = tm
	}
}

// TestTopologySearchCounter checks ddosd_refit_searches_total through
// the scheduler's publish step: a first fit counts, a full refit that
// carries does not. Records go straight into the store and refitBatch
// runs synchronously, so the number of refits does not depend on when
// the background loop picks up marks.
func TestTopologySearchCounter(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	cfg.Window = 128
	svc := New(cfg)
	defer svc.Close()
	attacks := irregularAttacks(as, 0, 44)
	for _, part := range [][]trace.Attack{attacks[:40], attacks[40:]} {
		for i := range part {
			svc.store.Ingest(&part[i])
		}
		svc.sched.lag.Add(1) // what TryEnqueue counts and refitBatch releases
		svc.sched.refitBatch([]astopo.AS{as})
	}
	tm, ok := svc.reg.Lookup(as)
	if !ok || tm.Prov.Refit != refitFull || tm.Prov.FullRefitsSinceSearch != 1 {
		t.Fatalf("second generation %+v, want a full refit that carried", tm.Prov)
	}
	if got, done := svc.tel.refitSearches.Value(), svc.tel.refitsDone.Value(); got != 1 || done != 2 {
		t.Fatalf("%d searches in %d refits, want 1 in 2", got, done)
	}
}

// TestTopologyProvenanceRoundTrip checks that both search fields survive
// the snapshot codec and appear in /forecast's provenance.
func TestTopologyProvenanceRoundTrip(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 44)
	first, err := fitTarget(nil, "", as, attacks[:40], 40, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := fitTarget(first, "", as, attacks, 44, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.Publish([]*TargetModels{tm})
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"search_window":40`) || !strings.Contains(buf.String(), `"full_refits_since_search":1`) {
		t.Fatalf("snapshot lacks the search fields: %s", grepLines(buf.String(), "search"))
	}
	r2 := NewRegistry()
	if err := r2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, _ := r2.Lookup(as)
	if back.Prov.SearchWindow != 40 || back.Prov.FullRefitsSinceSearch != 1 {
		t.Fatalf("restored provenance %+v, want search_window 40 and full_refits_since_search 1", back.Prov)
	}
	fc, err := r2.Forecast(as)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(fc.Provenance)
	if !strings.Contains(string(raw), `"search_window":40,"full_refits_since_search":1`) {
		t.Fatalf("/forecast provenance lacks the search fields: %s", raw)
	}
}

// TestTopologyLegacySnapshotSearches: a generation loaded from a snapshot
// written before the search fields existed makes the next full refit
// search, even though its topology could be carried.
func TestTopologyLegacySnapshotSearches(t *testing.T) {
	f, err := os.Open("testdata/legacy_ctx_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := NewRegistry()
	if err := reg.ReadSnapshot(f); err != nil {
		t.Fatal(err)
	}
	cfg := topologyConfig()
	// A grid without the fixture's topology: a carry would keep it.
	cfg.Spatial.Delays, cfg.Spatial.Hidden = []int{3}, []int{3}
	for _, as := range reg.Targets() {
		prev, _ := reg.Lookup(as)
		if prev.Prov.SearchWindow != 0 || prev.Prov.FullRefitsSinceSearch != 0 {
			t.Fatalf("AS%d: the fixture already has search fields %+v", as, prev.Prov)
		}
		tm, err := fitTarget(prev, "", as, irregularAttacks(as, 0, 50), 50, prev.Generation+1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Prov.FullRefitsSinceSearch != 0 || tm.Prov.SearchWindow != 50 || !inGrid(tm.Spatial.Topology(), cfg) {
			t.Fatalf("AS%d: refit after a legacy snapshot has provenance %+v and topology %+v, want a search",
				as, tm.Prov, tm.Spatial.Topology())
		}
	}
}
