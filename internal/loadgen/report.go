package loadgen

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// Report is one run's outcome: outcome counters, achieved rate, and the
// latency distribution (open loop measures completion minus scheduled
// arrival, so queue wait — the coordinated-omission term — is included;
// closed loop measures the bare sink call).
type Report struct {
	Mode     string
	Sent     int64
	Accepted int64
	Dups     int64
	Shed     int64
	Errors   int64
	Elapsed  time.Duration

	Max time.Duration // exact maximum latency

	lat *stats.ECDF // one latency per record, in nanoseconds
}

// setLatencies installs the run's per-record latencies (nanoseconds).
func (r *Report) setLatencies(ns []float64) {
	r.lat = stats.NewECDF(ns)
	r.Max = r.Quantile(1)
}

// Throughput returns attempted records per second.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent) / r.Elapsed.Seconds()
}

// ShedRate returns the fraction of sent records the service shed.
func (r *Report) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Sent)
}

// Quantile returns the exact nearest-rank latency quantile: the smallest
// recorded latency at or above a q share of the records. Zero without
// records.
func (r *Report) Quantile(q float64) time.Duration {
	if r.lat == nil || r.lat.Len() == 0 {
		return 0
	}
	return time.Duration(r.lat.Quantile(q))
}

// String renders the human report ddosload prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode        %s\n", r.Mode)
	fmt.Fprintf(&b, "elapsed     %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "sent        %d (%.0f rec/s)\n", r.Sent, r.Throughput())
	fmt.Fprintf(&b, "accepted    %d\n", r.Accepted)
	fmt.Fprintf(&b, "duplicates  %d\n", r.Dups)
	fmt.Fprintf(&b, "shed        %d (%.2f%%)\n", r.Shed, 100*r.ShedRate())
	fmt.Fprintf(&b, "errors      %d\n", r.Errors)
	fmt.Fprintf(&b, "latency     p50 %-10v p95 %-10v p99 %-10v max %v\n",
		r.Quantile(0.50), r.Quantile(0.95), r.Quantile(0.99), r.Max.Round(time.Microsecond))
	return b.String()
}

// MarshalJSON renders the machine-readable report (ddosload -json, CI
// artifacts): counters, derived rates, and the latency quantiles in
// seconds under stable snake_case keys.
func (r *Report) MarshalJSON() ([]byte, error) {
	latency := map[string]float64{
		"p50":  r.Quantile(0.50).Seconds(),
		"p90":  r.Quantile(0.90).Seconds(),
		"p95":  r.Quantile(0.95).Seconds(),
		"p99":  r.Quantile(0.99).Seconds(),
		"p999": r.Quantile(0.999).Seconds(),
		"max":  r.Max.Seconds(),
	}
	return json.Marshal(struct {
		Mode          string             `json:"mode"`
		ElapsedSec    float64            `json:"elapsed_sec"`
		Sent          int64              `json:"sent"`
		Accepted      int64              `json:"accepted"`
		Duplicates    int64              `json:"duplicates"`
		Shed          int64              `json:"shed"`
		Errors        int64              `json:"errors"`
		ThroughputRPS float64            `json:"throughput_rps"`
		ShedRate      float64            `json:"shed_rate"`
		LatencySec    map[string]float64 `json:"latency_sec"`
	}{
		Mode:          r.Mode,
		ElapsedSec:    r.Elapsed.Seconds(),
		Sent:          r.Sent,
		Accepted:      r.Accepted,
		Duplicates:    r.Dups,
		Shed:          r.Shed,
		Errors:        r.Errors,
		ThroughputRPS: r.Throughput(),
		ShedRate:      r.ShedRate(),
		LatencySec:    latency,
	})
}

// SLO is the pass/fail contract a run is judged against. Zero duration
// fields and negative rate fields are unchecked.
type SLO struct {
	P50, P95, P99 time.Duration // latency ceilings
	Max           time.Duration // worst-case latency ceiling
	MaxShedRate   float64       // ceiling on ShedRate; negative = unchecked
	MaxErrorRate  float64       // ceiling on Errors/Sent; negative = unchecked
	MinThroughput float64       // floor on attempted rec/s; 0 = unchecked
}

// Unchecked is the SLO rate value meaning "do not check".
const Unchecked = -1

// Check returns one error per violated objective (empty slice: the run
// passed).
func (r *Report) Check(slo SLO) []error {
	var out []error
	checkQ := func(name string, q float64, limit time.Duration) {
		if limit <= 0 {
			return
		}
		if got := r.Quantile(q); got > limit {
			out = append(out, fmt.Errorf("loadgen: %s latency %v over SLO %v", name, got, limit))
		}
	}
	checkQ("p50", 0.50, slo.P50)
	checkQ("p95", 0.95, slo.P95)
	checkQ("p99", 0.99, slo.P99)
	if slo.Max > 0 && r.Max > slo.Max {
		out = append(out, fmt.Errorf("loadgen: max latency %v over SLO %v", r.Max, slo.Max))
	}
	if slo.MaxShedRate >= 0 && r.ShedRate() > slo.MaxShedRate {
		out = append(out, fmt.Errorf("loadgen: shed rate %.4f over SLO %.4f", r.ShedRate(), slo.MaxShedRate))
	}
	if slo.MaxErrorRate >= 0 && r.Sent > 0 {
		if rate := float64(r.Errors) / float64(r.Sent); rate > slo.MaxErrorRate {
			out = append(out, fmt.Errorf("loadgen: error rate %.4f over SLO %.4f", rate, slo.MaxErrorRate))
		}
	}
	if slo.MinThroughput > 0 && r.Throughput() < slo.MinThroughput {
		out = append(out, fmt.Errorf("loadgen: throughput %.0f rec/s under SLO %.0f", r.Throughput(), slo.MinThroughput))
	}
	return out
}
