package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/astopo"
)

func TestCheckForecast(t *testing.T) {
	good := forecastReply{TargetAS: 7, Observations: 10, Hour: 23.9, Day: 1, DurationSec: 0, Magnitude: 3}
	if err := checkForecast(&good, 7, 10); err != nil {
		t.Fatalf("valid forecast rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*forecastReply)
		sent   uint64
		want   string
	}{
		{"wrong target", func(f *forecastReply) { f.TargetAS = 8 }, 10, "target"},
		{"hour 24", func(f *forecastReply) { f.Hour = 24 }, 10, "hour"},
		{"negative hour", func(f *forecastReply) { f.Hour = -0.1 }, 10, "hour"},
		{"NaN hour", func(f *forecastReply) { f.Hour = math.NaN() }, 10, "hour"},
		{"day 0", func(f *forecastReply) { f.Day = 0 }, 10, "day"},
		{"day 32", func(f *forecastReply) { f.Day = 31.5 }, 10, "day"},
		{"negative duration", func(f *forecastReply) { f.DurationSec = -1 }, 10, "duration"},
		{"infinite magnitude", func(f *forecastReply) { f.Magnitude = math.Inf(1) }, 10, "magnitude"},
		{"observations over sent", func(f *forecastReply) {}, 9, "observations"},
	} {
		f := good
		c.mutate(&f)
		err := checkForecast(&f, 7, c.sent)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestCheckDurability(t *testing.T) {
	acked := map[astopo.AS]uint64{1: 5, 2: 3, 3: 0}
	if errs := checkDurability(acked, map[astopo.AS]uint64{1: 5, 2: 4}); len(errs) != 0 {
		t.Errorf("covered acks flagged: %v", errs)
	}
	errs := checkDurability(acked, map[astopo.AS]uint64{1: 4, 2: 3})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "AS1") {
		t.Errorf("lost record not flagged once for AS1: %v", errs)
	}
	if errs := checkDurability(acked, nil); len(errs) != 2 {
		t.Errorf("empty recovery: %d errors, want 2", len(errs))
	}
}

func TestSetupAndLoadGates(t *testing.T) {
	if checkPublished(1, 20, true) != nil || checkPublished(1, 20, false) == nil {
		t.Error("checkPublished does not fail exactly the unpublished target")
	}
	if checkSendLag(maxSendLagP99MS) != nil || checkSendLag(maxSendLagP99MS+0.1) == nil {
		t.Error("checkSendLag does not fail exactly past its bound")
	}
}

func TestCheckExperimentAndDigest(t *testing.T) {
	type row struct {
		Name string
		RMSE map[string]float64
		Errs []float64
	}
	ok := []row{{Name: "a", RMSE: map[string]float64{"x": 1, "y": 2}, Errs: []float64{0.5}}}
	if err := checkExperiment("fig", len(ok), ok); err != nil {
		t.Errorf("valid output rejected: %v", err)
	}
	if err := checkExperiment("fig", 0, []row{}); err == nil {
		t.Error("empty output accepted")
	}
	if err := checkExperiment("fig", 1, []row{{Name: "a"}}); err == nil {
		t.Error("output without numbers accepted")
	}
	bad := []row{{Name: "a", Errs: []float64{math.NaN()}}}
	if err := checkExperiment("fig", 1, bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN output: err = %v", err)
	}

	// The digest is a function of the values only (map order included)
	// and changes with any number.
	again := []row{{Name: "a", RMSE: map[string]float64{"y": 2, "x": 1}, Errs: []float64{0.5}}}
	if digestOf(ok).h != digestOf(again).h {
		t.Error("digest depends on map insertion order")
	}
	changed := []row{{Name: "a", RMSE: map[string]float64{"x": 1, "y": 2}, Errs: []float64{0.50000001}}}
	if digestOf(ok).h == digestOf(changed).h {
		t.Error("digest blind to a changed number")
	}
}

// TestBenchmarkJSONMatchesPerfbench pins BENCHMARK.json to perfbench:
// the workloads it lists exist, and its metrics are the ones perfbench
// prints, with the same units.
func TestBenchmarkJSONMatchesPerfbench(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := servingWorkloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a serving workload of perfbench", w.Name)
		}
	}
	same := func(kind string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)", kind, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
