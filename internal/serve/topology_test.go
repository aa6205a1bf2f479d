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
		wantWindow  int // want Prov.SearchWindow
	}
	steps := []step{
		{name: "first fit searches", n: 40, wantSearch: true, wantWindow: 40},
		{name: "next full refit carries", before: withTopology(allOffGrid), n: 44, wantWindow: 40},
		{name: "incremental copies the search window", n: 48, incremental: true, wantWindow: 40},
		{name: "full refit after a fold-in carries", n: 48, wantWindow: 40},
		{name: "doubled window searches", before: withTopology(allOffGrid), n: 80, wantSearch: true, wantWindow: 80},
		{name: "zero-topology series searches on its own", before: withTopology(zeroDuration), n: 100, wantWindow: 80},
	}

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
			tm, err = fitTarget(prev, as, window, uint64(st.n), uint64(i+1), cfg)
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, st.name, err)
		}
		wantRefit := refitFull
		if st.incremental {
			wantRefit = refitIncremental
		}
		p := tm.Prov
		if p.Refit != wantRefit || p.SearchWindow != st.wantWindow {
			t.Fatalf("step %d (%s): refit %q, search_window %d; want %q, %d",
				i, st.name, p.Refit, p.SearchWindow, wantRefit, st.wantWindow)
		}
		if tm.searched != st.wantSearch {
			t.Fatalf("step %d (%s): counted as a search = %v, want %v", i, st.name, tm.searched, st.wantSearch)
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

// refitNow ingests part straight into svc's store and runs one refit of
// as through the scheduler's publish step, synchronously, so the number
// of refits does not depend on when the background loop picks up marks.
// It returns the published generation.
func refitNow(t *testing.T, svc *Service, as astopo.AS, part []trace.Attack) *TargetModels {
	t.Helper()
	for i := range part {
		svc.store.Ingest(&part[i])
	}
	svc.sched.lag.Add(1) // what TryEnqueue counts and refitBatch releases
	svc.sched.refitBatch([]astopo.AS{as})
	tm, ok := svc.reg.Lookup(as)
	if !ok {
		t.Fatal("no published generation")
	}
	return tm
}

// TestTopologySearchCounter checks ddosd_refit_searches_total through
// the scheduler's publish step. With fold-ins off every refit after the
// first is a full refit. The first fit searches, and so does a refit whose
// window has doubled since. Sixteen carried refits at the window the
// store then holds steady never search, and each keeps the topology. The
// counter counts exactly the two refits that searched.
func TestTopologySearchCounter(t *testing.T) {
	const (
		as     = astopo.AS(64512)
		window = 80 // the store's cap, twice the first fit's window
		chain  = 16
		step   = 4
	)
	cfg := topologyConfig()
	cfg.Window = window
	cfg.IncrementalRefit = false
	svc := New(cfg)
	defer svc.Close()
	stopSweep(svc)
	attacks := irregularAttacks(as, 0, window+chain*step)
	first := refitNow(t, svc, as, attacks[:window/2])
	doubled := refitNow(t, svc, as, attacks[window/2:window])
	if !first.searched || !doubled.searched || doubled.Prov.SearchWindow != window {
		t.Fatalf("first fit searched %v, doubled window searched %v with search window %d; want two searches, the second over %d",
			first.searched, doubled.searched, doubled.Prov.SearchWindow, window)
	}
	tm := doubled
	for k := 0; k < chain; k++ {
		lo := window + k*step
		tm = refitNow(t, svc, as, attacks[lo:lo+step])
		if tm.searched || tm.Window != window || tm.Prov.SearchWindow != window || tm.Spatial.Topology() != doubled.Spatial.Topology() {
			t.Fatalf("carried refit %d: searched %v, window %d, search window %d, topology %+v; want a carry of %+v over %d",
				k+1, tm.searched, tm.Window, tm.Prov.SearchWindow, tm.Spatial.Topology(), doubled.Spatial.Topology(), window)
		}
	}
	searches, full, done := svc.tel.refitSearches.Value(), svc.tel.refitFull.With(fullIncrementalOff).Value(), svc.tel.refitsDone.Value()
	if searches != 2 || full != chain+1 || done != chain+2 {
		t.Fatalf("%d searches, %d incremental_off full refits in %d refits; want 2, %d in %d", searches, full, done, chain+1, chain+2)
	}
}

// TestTopologyProvenanceRoundTrip checks that the search window survives
// the snapshot codec and appears in /forecast's provenance.
func TestTopologyProvenanceRoundTrip(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 44)
	first, err := fitTarget(nil, as, attacks[:40], 40, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := fitTarget(first, as, attacks, 44, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.Publish([]*TargetModels{tm})
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"search_window":40`) {
		t.Fatalf("snapshot lacks the search window: %s", grepLines(buf.String(), "search"))
	}
	r2 := NewRegistry()
	if err := r2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, _ := r2.Lookup(as)
	if back.Prov.SearchWindow != 40 {
		t.Fatalf("restored provenance %+v, want search_window 40", back.Prov)
	}
	fc, err := r2.Forecast(as)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(fc.Provenance)
	if !strings.Contains(string(raw), `"search_window":40`) {
		t.Fatalf("/forecast provenance lacks the search window: %s", raw)
	}
}

// TestTopologyRetiredCounterSnapshotCarries: a snapshot written while
// every 8th full refit searched still holds full_refits_since_search.
// It loads, and a generation whose count was due for that search (7)
// carries its topology on the next full refit.
func TestTopologyRetiredCounterSnapshotCarries(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 48)
	prev, err := fitTarget(nil, as, attacks[:40], 40, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allOffGrid := core.SpatialTopology{Duration: offGrid, Hour: offGrid, Day: offGrid}
	if prev.Spatial, err = core.FitSpatial(as, attacks[:40], spatialCfg(as, cfg), allOffGrid, core.SpatialStart{}); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	r.Publish([]*TargetModels{prev})
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(buf.String(), `"search_window":40`, `"search_window":40,"full_refits_since_search":7`, 1)
	if old == buf.String() {
		t.Fatalf("snapshot lacks the search window: %s", grepLines(buf.String(), "search"))
	}
	r2 := NewRegistry()
	if err := r2.ReadSnapshot(strings.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	back, ok := r2.Lookup(as)
	if !ok {
		t.Fatal("the snapshot's generation did not load")
	}
	tm, err := fitTarget(back, as, attacks, 48, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tm.searched || tm.Prov.SearchWindow != 40 || tm.Spatial.Topology() != allOffGrid {
		t.Fatalf("next full refit: searched %v, search window %d, topology %+v; want the carried %+v",
			tm.searched, tm.Prov.SearchWindow, tm.Spatial.Topology(), allOffGrid)
	}
}

// TestTopologyLegacySnapshotSearches: a generation loaded from a snapshot
// written before the search window existed makes the next full refit
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
		if prev.Prov.SearchWindow != 0 {
			t.Fatalf("AS%d: the fixture already has a search window %+v", as, prev.Prov)
		}
		tm, err := fitTarget(prev, as, irregularAttacks(as, 0, 50), 50, prev.Generation+1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !tm.searched || tm.Prov.SearchWindow != 50 || !inGrid(tm.Spatial.Topology(), cfg) {
			t.Fatalf("AS%d: refit after a legacy snapshot has provenance %+v and topology %+v, want a search",
				as, tm.Prov, tm.Spatial.Topology())
		}
	}
}
