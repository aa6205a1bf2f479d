package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of ddosd sees and what stays steady from run
// to run on a 2-CPU box; untraced runs of the serving workloads report
// every one of them (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rps", "rec/s"},
	{"forecast_age_p50_s", "s"},
	{"forecast_age_p99_s", "s"},
	{"cpu_ms_per_krec", "ms"},
	{"heap_live_mb", "MiB"},
}

// requestLatency is what a user sees per request. Its run-to-run spread
// on a 2-CPU box, where refits compete with every request for the CPUs,
// exceeds the 25% a bound may allow, so it is reported with the
// per-layer metrics of traced runs, not gated.
var requestLatency = []metricDef{
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"forecast_p50_ms", "ms"},
	{"forecast_p99_ms", "ms"},
}

// reproEndToEnd is what the standalone paper-repro workload reports.
var reproEndToEnd = []metricDef{
	{"setup_s", "s"},
	{"repro_s", "s"},
	{"heap_live_mb", "MiB"},
}

// perLayer is what traced runs report (BENCHMARK.json per_layer), led by
// the request latencies. A layer that does no work on a workload reports 0.
var perLayer = append(append([]metricDef(nil), requestLatency...), []metricDef{
	{"error_frac", "ratio"},
	{"client.send_lag_p99_ms", "ms"},
	{"client.transport_us", "us"},
	{"serve.http.ingest_us", "us"},
	{"serve.http.forecast_us", "us"},
	{"serve.http.forecast_bytes", "bytes"},
	{"serve.http.unattributed_us_per_req", "us"},
	{"serve.store.append_us_per_rec", "us"},
	{"detect.us_per_rec", "us"},
	{"wal.us_per_req", "us"},
	{"wal.bytes_per_rec", "bytes"},
	{"wal.checkpoint_ms", "ms"},
	{"setup.replay_s", "s"},
	{"obs.score_us_per_rec", "us"},
	{"obs.acc_mag_relerr_st", "ratio"},
	{"obs.acc_hit_rate_st", "ratio"},
	{"obs.acc_mag_relerr_always_same", "ratio"},
	{"serve.scheduler.schedule_us_per_rec", "us"},
	{"serve.scheduler.wait_ms_p50", "ms"},
	{"serve.scheduler.records_per_fit", "count"},
	{"serve.registry.publishes", "count"},
	{"serve.registry.fits_per_publish", "ratio"},
	{"core.fit_full_count", "count"},
	{"core.fit_incremental_count", "count"},
	{"core.fit_incremental_share", "ratio"},
	{"core.fit_full_ms_p50", "ms"},
	{"core.fit_incremental_ms_p50", "ms"},
	{"core.fit_busy_ms_per_krec", "ms"},
	{"core.fit_errors", "count"},
	{"setup.fit_s", "s"},
	{"runtime.alloc_kb_per_krec", "KiB"},
	{"runtime.gc_cycles_per_krec", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"eval.build_env_s", "s"},
	{"eval.fig1_s", "s"},
	{"eval.fig2_s", "s"},
	{"eval.fig34_s", "s"},
	{"eval.compare_s", "s"},
	{"eval.fig34_predictions", "count"},
}...)

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	failures  map[string]int
	values    map[string]float64
	notes     map[string]string // sample counts and similar, printed beside a metric
}

func newReport() *report {
	return &report{failures: map[string]int{}, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// gate counts one correctness check, failed when err is non-nil.
func (r *report) gate(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures[err.Error()]++
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes every metric in defs by name and unit, the failures, and
// last the one-line JSON result. With strict set (end-to-end metrics) a
// metric that could not be measured fails the run; otherwise it reads 0
// and is marked absent.
func (r *report) print(w io.Writer, defs []metricDef, strict bool) error {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || !finite(v) {
			if strict {
				r.gate(fmt.Errorf("metric %s not measured (%v)", d.name, v))
			} else if r.notes[d.name] == "" {
				r.notes[d.name] = "absent"
			}
			v = 0
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		r.printLine(w, d, v)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (error_frac %.6g)\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	keys := make([]string, 0, len(r.failures))
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "FAIL %s (x%d)\n", k, r.failures[k])
	}
	b, err := json.Marshal(resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func (r *report) printLine(w io.Writer, d metricDef, v float64) {
	line := fmt.Sprintf("%-38s %14.6g %s", d.name, v, d.unit)
	if n := r.notes[d.name]; n != "" {
		line += "  (" + n + ")"
	}
	fmt.Fprintln(w, line)
}

// printInfo writes the measured metrics in defs by name and unit, outside
// the JSON result.
func (r *report) printInfo(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok {
			r.printLine(w, d, v)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stamp prints what produced the numbers.
func stamp(w io.Writer, workload string, o options) {
	p := obs.Provenance()
	commit := p.GitCommit
	if commit == "" {
		commit = "unknown"
	}
	host, _ := os.Hostname()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v go=%s commit=%s dirty=%v nproc=%d GOMAXPROCS=%d host=%s\n",
		workload, o.seed, o.seconds, o.trace, p.GoVersion, commit, p.Dirty, runtime.NumCPU(), runtime.GOMAXPROCS(0), host)
}

// table prints rows of (label, value) with a header.
func table(w io.Writer, title, unit string, rows [][2]any) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	for _, r := range rows {
		switch v := r[1].(type) {
		case float64:
			fmt.Fprintf(w, "  %-44s %12.3f %s\n", r[0], v, unit)
		default:
			fmt.Fprintf(w, "  %-44s %12v\n", r[0], v)
		}
	}
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
