package serve

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/trace"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// generationJSON is a generation's snapshot encoding without its fit
// clock, so two fits of the same inputs compare byte for byte.
func generationJSON(t *testing.T, tm *TargetModels) []byte {
	t.Helper()
	c := &TargetModels{AS: tm.AS, Family: tm.Family, Temporal: tm.Temporal, Spatial: tm.Spatial, ST: tm.ST,
		Prov: tm.Prov, Ctx: tm.Ctx, Window: tm.Window, Total: tm.Total, Generation: tm.Generation, LastStart: tm.LastStart}
	return mustJSON(t, c)
}

// carriedChain fits attacks[:40] (a search), folds attacks[40:44] in, and
// runs a carried full refit over attacks[:48].
func carriedChain(t *testing.T, as astopo.AS, attacks []trace.Attack, cfg Config) (first, incr, carried *TargetModels) {
	t.Helper()
	first, err := fitTarget(nil, as, attacks[:40], 40, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if incr, err = fitTargetIncremental(first, as, attacks[:44], 44, 2, cfg); err != nil {
		t.Fatal(err)
	}
	if carried, err = fitTarget(incr, as, attacks[:48], 48, 3, cfg); err != nil {
		t.Fatal(err)
	}
	if carried.searched || carried.Prov.SearchWindow != 40 {
		t.Fatalf("third generation %+v is not a carried full refit", carried.Prov)
	}
	return first, incr, carried
}

// TestCarriedRefitWarmChain: across full → incremental → carried full, the
// incremental generation hands the first fit's prefix on unchanged, and
// the carried refit starts its window networks from the published
// (incremental) generation's and its prefix networks from the first
// fit's prefix, training warmEpochs from there.
func TestCarriedRefitWarmChain(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 48)
	first, incr, carried := carriedChain(t, as, attacks, cfg)
	if first.prefix.sm == nil || incr.prefix != first.prefix {
		t.Fatalf("incremental generation's prefix %+v, want the first fit's %+v", incr.prefix, first.prefix)
	}
	scfg := spatialCfg(as, cfg)
	topo := incr.Spatial.Topology()
	if carried.Spatial.Topology() != topo {
		t.Fatalf("carried topology %+v, want %+v", carried.Spatial.Topology(), topo)
	}
	// stSamples walks its prefix model through the rest of the window.
	fitEnd := int(stFitFrac * float64(len(attacks)))
	if want := attacks[fitEnd-1].Start; !carried.prefix.seen.Equal(want) {
		t.Errorf("prefix chain saw through %v, want %v", carried.prefix.seen, want)
	}
	for _, c := range []struct {
		name         string
		got          *core.Spatial
		data, walked []trace.Attack
		from         *core.Spatial
	}{
		{"window", carried.Spatial, attacks, nil, incr.Spatial},
		{"prefix", carried.prefix.sm, attacks[:fitEnd], attacks[fitEnd:], first.prefix.sm},
	} {
		warm, err := core.FitSpatial(as, c.data, scfg, topo, c.from.Start(warmEpochs))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.FitSpatial(as, c.data, scfg, topo, core.SpatialStart{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.walked {
			warm.Observe(&c.walked[i])
			cold.Observe(&c.walked[i])
		}
		got := mustJSON(t, c.got)
		if !bytes.Equal(got, mustJSON(t, warm)) {
			t.Errorf("%s networks are not the warm start from the previous generation's", c.name)
		}
		if bytes.Equal(got, mustJSON(t, cold)) {
			t.Errorf("%s networks equal a cold fit; the chain does not exercise the start", c.name)
		}
	}
}

// TestCarriedRefitDriftStartsWarm: a carried full refit that runs because
// the duration network's drift diagnostic failed on the tail
// (drift_spatial_duration) starts all three window networks from the
// previous generation's, as every other carried refit does.
func TestCarriedRefitDriftStartsWarm(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	cfg.IncrementalRefit = true
	svc := New(cfg)
	defer svc.Close()
	stopSweep(svc)
	attacks := irregularAttacks(as, 0, 44)
	attacks[43].DurationSec = 1e7 // far outside the duration network's training range
	prev := refitNow(t, svc, as, attacks[:40])
	tm := refitNow(t, svc, as, attacks[40:])
	if got := svc.tel.refitFull.With("drift_spatial_duration").Value(); got != 1 || tm.searched {
		t.Fatalf("drift_spatial_duration count %d, searched %v; want one carried full refit", got, tm.searched)
	}
	want, err := core.FitSpatial(as, attacks, spatialCfg(as, cfg), prev.Spatial.Topology(), prev.Spatial.Start(warmEpochs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, tm.Spatial), mustJSON(t, want)) {
		t.Fatal("window networks are not all warm from the previous generation's")
	}
}

// TestCarriedRefitSnapshotDropsPrefix: the prefix lives in memory only,
// so a generation read back from a snapshot has none. Its next carried
// refit trains the prefix cold and still starts the window networks from
// the snapshot's, which reproduces the in-memory chain's window model.
func TestCarriedRefitSnapshotDropsPrefix(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 48)
	_, incr, carried := carriedChain(t, as, attacks, cfg)
	r := NewRegistry()
	r.Publish([]*TargetModels{incr})
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if err := r2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, _ := r2.Lookup(as)
	if back.prefix.sm != nil {
		t.Fatal("a generation read from a snapshot has a prefix")
	}
	tm, err := fitTarget(back, as, attacks, 48, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, cold := stSamples(as, attacks, incr.Spatial.Topology(), prefixModel{}, cfg)
	if !bytes.Equal(mustJSON(t, tm.prefix.sm), mustJSON(t, cold.sm)) {
		t.Fatal("the prefix after a snapshot did not train cold")
	}
	if !bytes.Equal(mustJSON(t, tm.Spatial), mustJSON(t, carried.Spatial)) {
		t.Fatal("the window networks after a snapshot differ from the in-memory chain's")
	}
}

// TestCarriedRefitDeterministic: a carried full refit is a function of
// its window and the previous generation, warm-start weights included.
func TestCarriedRefitDeterministic(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 48)
	_, incr, carried := carriedChain(t, as, attacks, cfg)
	again, err := fitTarget(incr, as, attacks, 48, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := generationJSON(t, carried), generationJSON(t, again); !bytes.Equal(a, b) {
		t.Fatalf("two carried refits of one window and one previous generation differ:\n%s\n%s", a, b)
	}
	if !bytes.Equal(mustJSON(t, carried.prefix.sm), mustJSON(t, again.prefix.sm)) || !carried.prefix.seen.Equal(again.prefix.seen) {
		t.Fatal("two carried refits left different prefixes")
	}
}

// TestCarriedRefitLeavesPrevUnchanged: warm starts train copies, so the
// published generation's networks, window and prefix, stay as they were
// while carried refits start from them under concurrent Forecast reads
// (run under -race).
func TestCarriedRefitLeavesPrevUnchanged(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := topologyConfig()
	attacks := irregularAttacks(as, 0, 48)
	_, prev, _ := carriedChain(t, as, attacks, cfg)
	reg := NewRegistry()
	reg.Publish([]*TargetModels{prev})
	before, prefixBefore := generationJSON(t, prev), mustJSON(t, prev.prefix.sm)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := reg.Forecast(as); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if _, err := fitTarget(prev, as, attacks, 48, uint64(4+i), cfg); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if !bytes.Equal(generationJSON(t, prev), before) || !bytes.Equal(mustJSON(t, prev.prefix.sm), prefixBefore) {
		t.Fatal("carried refits changed the generation they started from")
	}
}
