package main

import (
	"io"
	"math"
	"testing"
)

// toySizing shrinks a run to seconds: eight targets, a short history,
// and a tiny paper world.
var toySizing = sizing{targets: 8, history: 512, conns: 2, ahead: 16, reproScale: 0.03}

func toyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 1.5, trace: trace, out: t.TempDir(), size: toySizing}
}

// checkReport asserts a passing run that measured every metric in defs.
func checkReport(t *testing.T, rep *report, defs []metricDef, strict bool) {
	t.Helper()
	if !rep.correct() {
		t.Fatalf("run failed its gates: %d of %d failed: %v", rep.failed, rep.attempted, rep.failures)
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if strict {
				t.Errorf("%s not measured (%v)", d.name, v)
			}
			continue
		}
		if strict && v <= 0 {
			t.Errorf("%s = %v, want positive", d.name, v)
		}
	}
}

func TestSmokeServing(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	for _, name := range servingNames() {
		t.Run(name, func(t *testing.T) {
			o := toyOptions(t, name, false)
			rep, err := runServing(io.Discard, name, servingWorkloads[name], o)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd, true)
			// Gates that ran: one set-up check and one durability check per
			// target and sub-run, plus every request.
			if want := 2 * toySizing.targets * servingWorkloads[name].subRuns; rep.attempted < want {
				t.Errorf("only %d gate checks and requests, want more than %d", rep.attempted, want)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and builds a paper world")
	}
	o := toyOptions(t, "mixed-json", true)
	rep, err := runServing(io.Discard, o.workload, servingWorkloads[o.workload], o)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, perLayer, false)
	for _, name := range []string{"client.transport_us", "serve.http.ingest_us", "core.fit_busy_ms_per_krec", "eval.fig34_predictions", "setup.fit_s"} {
		if rep.values[name] <= 0 {
			t.Errorf("%s = %v, want positive in a traced run", name, rep.values[name])
		}
	}
}

func TestSmokePaperRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a paper world")
	}
	o := toyOptions(t, "paper-repro", false)
	o.seconds = 0.1
	rep, err := runRepro(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, reproEndToEnd, true)
	// Four experiment gates per pass.
	if rep.attempted < 4 {
		t.Errorf("%d experiment gates, want at least 4", rep.attempted)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	o := toyOptions(t, "no-such-workload", false)
	if code := run(o); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
