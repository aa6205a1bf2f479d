package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// stageDelta is one ddosd_stage_seconds_sum series over the measured
// phase, in seconds.
type stageDelta struct {
	sum float64
	ok  bool // the service exposes the series
}

func stageDeltas(before, after promSample, stages ...string) map[string]stageDelta {
	out := make(map[string]stageDelta, len(stages))
	for _, s := range stages {
		sum, ok := delta(before, after, `ddosd_stage_seconds_sum{stage="`+s+`"}`)
		out[s] = stageDelta{sum: sum, ok: ok}
	}
	return out
}

// ingestStages are the service's own split of an /ingest request.
var ingestStages = []string{"append", "detect", "wal", "score", "schedule"}

// layerMetrics derives the request-path per-layer metrics from the spans
// and the /metrics deltas, and prints the ingest and forecast self-time
// tables. It returns the stage deltas for the refit plane.
func layerMetrics(w io.Writer, rep *report, spans []span, before, after promSample, attempted, failed int, recs float64) map[string]stageDelta {
	self := selfTimes(spans)
	var clientIng, selfIng, httpIng, clientFc, selfFc, httpFc, fcBytes []float64
	for i := range spans {
		s := &spans[i]
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case "client.ingest":
			clientIng = append(clientIng, us)
			selfIng = append(selfIng, float64(self[s.ID])/1e3)
		case "client.forecast":
			clientFc = append(clientFc, us)
			selfFc = append(selfFc, float64(self[s.ID])/1e3)
		case "http.ingest":
			if s.Req != 0 {
				httpIng = append(httpIng, us)
			}
		case "http.forecast":
			if s.Req != 0 {
				httpFc = append(httpFc, us)
				b, _ := strconv.Atoi(s.Attrs["bytes"])
				fcBytes = append(fcBytes, float64(b))
			}
		}
	}
	stages := stageDeltas(before, after, append([]string{"ingest", "forecast", "fit", "refit", "publish"}, ingestStages...)...)
	nIng, nFc := float64(len(clientIng)), float64(len(clientFc))
	perRec := func(stage string) float64 {
		if d := stages[stage]; d.ok && recs > 0 {
			return d.sum * 1e6 / recs
		}
		return math.NaN()
	}

	rep.set("client.transport_us", mean(selfIng), fmt.Sprintf("client round trip minus handler, n=%d", len(selfIng)))
	rep.set("serve.http.ingest_us", mean(httpIng), fmt.Sprintf("n=%d", len(httpIng)))
	rep.set("serve.http.forecast_us", mean(httpFc), fmt.Sprintf("n=%d", len(httpFc)))
	rep.set("serve.http.forecast_bytes", mean(fcBytes), "")
	var stageSum float64
	for _, s := range ingestStages {
		stageSum += stages[s].sum
	}
	svcIngest := stages["ingest"].sum
	if !stages["ingest"].ok {
		svcIngest = mean(httpIng) * nIng / 1e6
	}
	rep.set("serve.http.unattributed_us_per_req", (svcIngest-stageSum)*1e6/nIng, "decode, response, span bookkeeping")
	rep.set("serve.store.append_us_per_rec", perRec("append"), "")
	rep.set("detect.us_per_rec", perRec("detect"), "")
	if d := stages["wal"]; d.ok {
		rep.set("wal.us_per_req", d.sum*1e6/nIng, "")
	}
	if b, ok := delta(before, after, "ddosd_wal_appended_bytes_total"); ok && recs > 0 {
		rep.set("wal.bytes_per_rec", b/recs, "")
	}
	rep.set("obs.score_us_per_rec", perRec("score"), "")
	rep.set("serve.scheduler.schedule_us_per_rec", perRec("schedule"), "")
	rep.set("error_frac", ratio(float64(failed), float64(attempted)), "")

	perReq := func(stage string) any {
		if d := stages[stage]; d.ok {
			return d.sum * 1e6 / nIng
		}
		return "absent"
	}
	rows := [][2]any{
		{"client transport (client.ingest self)", mean(selfIng)},
		{"handler outside the service's ingest span", mean(httpIng) - svcIngest*1e6/nIng},
	}
	total := rows[0][1].(float64) + rows[1][1].(float64) + (svcIngest-stageSum)*1e6/nIng
	for _, s := range ingestStages {
		rows = append(rows, [2]any{"serve stage " + s, perReq(s)})
		total += stages[s].sum * 1e6 / nIng
	}
	rows = append(rows,
		[2]any{"unattributed (decode, response, spans)", (svcIngest - stageSum) * 1e6 / nIng},
		[2]any{"sum of rows", total},
		[2]any{"client-observed mean ingest request", mean(clientIng)},
		[2]any{"rows / client mean", fmt.Sprintf("%.1f%%", 100*total/mean(clientIng))})
	table(w, fmt.Sprintf("ingest path, self time per request (n=%d requests, %.0f records)", len(clientIng), recs), "us", rows)

	fcStage := stages["forecast"]
	fcRows := [][2]any{
		{"client transport (client.forecast self)", mean(selfFc)},
		{"handler outside the service's forecast span", mean(httpFc) - fcStage.sum*1e6/nFc},
		{"serve stage forecast (lookup, compose, encode)", fcStage.sum * 1e6 / nFc},
		{"client-observed mean forecast request", mean(clientFc)},
	}
	table(w, fmt.Sprintf("forecast path, self time per request (n=%d)", len(clientFc)), "us", fcRows)
	return stages
}

// refitPlane derives the fit and scheduler metrics from the fits that
// ended in [from, to), the window the /metrics deltas cover, and prints
// the refit-plane table.
func refitPlane(w io.Writer, rep *report, fits *fitLog, stages map[string]stageDelta, from, to, recoverStart, recoverEnd int64, publishes, krec float64) {
	var fullMS, incrMS, waitMS, newRecs []float64
	var errs int
	var busy float64
	all := fits.all()
	for _, f := range all {
		if f.end < from || f.end >= to {
			continue
		}
		ms := float64(f.end-f.start) / 1e6
		busy += ms
		switch {
		case f.failed:
			errs++
			continue
		case f.incremental:
			incrMS = append(incrMS, ms)
		default:
			fullMS = append(fullMS, ms)
		}
		newRecs = append(newRecs, float64(f.newRecords))
		if f.waitNS >= 0 {
			waitMS = append(waitMS, float64(f.waitNS)/1e6)
		}
	}
	n := float64(len(fullMS) + len(incrMS))
	rep.set("core.fit_full_count", float64(len(fullMS)), "")
	rep.set("core.fit_incremental_count", float64(len(incrMS)), "")
	rep.set("core.fit_incremental_share", ratio(float64(len(incrMS)), n), "")
	rep.set("core.fit_full_ms_p50", median(fullMS), fmt.Sprintf("n=%d", len(fullMS)))
	rep.set("core.fit_incremental_ms_p50", median(incrMS), fmt.Sprintf("n=%d", len(incrMS)))
	rep.set("core.fit_busy_ms_per_krec", busy/krec, "")
	rep.set("core.fit_errors", float64(errs), "")
	rep.set("serve.scheduler.wait_ms_p50", median(waitMS), fmt.Sprintf("n=%d", len(waitMS)))
	rep.set("serve.scheduler.records_per_fit", mean(newRecs), "")
	rep.set("serve.registry.fits_per_publish", ratio(n, publishes), "")

	first := recoverEnd
	for _, f := range all {
		if f.start >= recoverStart {
			first = min(first, f.start)
		}
	}
	rep.set("setup.replay_s", float64(first-recoverStart)/1e9, "RecoverWAL start to its first fit")
	rep.set("setup.fit_s", float64(recoverEnd-first)/1e9, "first fit to RecoverWAL return")

	elapsedMS := float64(to-from) / 1e6
	fitStage := stages["fit"]
	table(w, fmt.Sprintf("refit plane over the measured phase (%.0f ms wall, %d CPUs)", elapsedMS, runtime.GOMAXPROCS(0)), "ms", [][2]any{
		{fmt.Sprintf("fit spans, full (n=%d)", len(fullMS)), sum(fullMS)},
		{fmt.Sprintf("fit spans, incremental (n=%d)", len(incrMS)), sum(incrMS)},
		{fmt.Sprintf("fit spans, failed (n=%d)", errs), busy - sum(fullMS) - sum(incrMS)},
		{"serve stage fit (window copy + fit)", fitStage.sum * 1e3},
		{"fit spans / serve stage fit", fmt.Sprintf("%.1f%%", 100*ratio(busy, fitStage.sum*1e3))},
		{"serve stage publish", stages["publish"].sum * 1e3},
		{"serve stage refit (batch wall)", stages["refit"].sum * 1e3},
		{"fit busy share of all CPUs", fmt.Sprintf("%.1f%%", 100*busy/(elapsedMS*float64(runtime.GOMAXPROCS(0))))},
	})
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// untracedLog is where untraced runs leave their end-to-end metrics so a
// later traced run in the same checkout can print the tracing overhead.
func untracedLog(out, workload string) string {
	return filepath.Join(out, "untraced-"+workload+".jsonl")
}

func saveUntraced(out, workload string, rep *report) {
	f, err := os.OpenFile(untracedLog(out, workload), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	b, err := json.Marshal(rep.values)
	if err == nil {
		f.Write(append(b, '\n'))
	}
}

// tracingOverhead prints the traced run's end-to-end figures against the
// medians of the untraced runs recorded in this checkout.
func tracingOverhead(w io.Writer, out, workload string, rep *report) {
	f, err := os.Open(untracedLog(out, workload))
	if err != nil {
		fmt.Fprintln(w, "\ntracing overhead: no untraced run of this workload recorded yet")
		return
	}
	defer f.Close()
	vals := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]float64
		if json.Unmarshal(sc.Bytes(), &m) != nil {
			continue
		}
		runs++
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	var rows [][2]any
	for _, d := range append(append([]metricDef(nil), endToEnd...), requestLatency...) {
		if d.name == "setup_s" || len(vals[d.name]) == 0 {
			continue
		}
		base := median(vals[d.name])
		rows = append(rows, [2]any{d.name, fmt.Sprintf("traced %.4g vs untraced median %.4g %s (%+.1f%%)",
			rep.values[d.name], base, d.unit, 100*(rep.values[d.name]/base-1))})
	}
	table(w, fmt.Sprintf("tracing overhead (untraced median of %d runs)", runs), "", rows)
}
