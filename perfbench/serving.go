package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/astopo"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wal"
)

// servingSpec is one serving workload: how the load is shaped, how the
// daemon is flagged, and how a run's measurement is split.
type servingSpec struct {
	binary bool   // 64-record application/x-ddos-batch bodies; else one-record JSON
	fsync  string // ddosd -wal-fsync
	detect bool   // ddosd -detect
	burst  loadgen.BurstConfig
	// Closed loop: batch records per request, one forecast per readEvery
	// batches per connection.
	closed    bool
	batch     int
	readEvery int
	// Open loop: request rates on a fixed schedule.
	ingestRate, readRate float64
	// subRuns independent sub-runs, each with its own seed-derived data
	// and boot, share a run's measured seconds.
	subRuns int
}

var servingWorkloads = map[string]servingSpec{
	// With the refit plane saturating both CPUs, the ingest rate drifts
	// between scheduler regimes that last seconds; two long sub-runs on
	// independent data average them.
	"firehose-binary": {
		binary: true, fsync: "always", detect: true,
		burst: loadgen.BurstConfig{Every: 40 * time.Minute, Len: 90 * time.Second,
			Gap: 400 * time.Millisecond, Targets: 16, BotPool: 4},
		closed: true, batch: 64, readEvery: 2,
		subRuns: 2,
	},
	// Three sub-runs: refit cost, and with it every latency, depends on
	// the data the seed draws for the few most popular targets.
	"mixed-json": {
		fsync: "50ms", batch: 1, ingestRate: 400, readRate: 200,
		subRuns: 3,
	},
}

// timeCompress packs days of trace time into the run (loadgen.GenConfig)
// while keeping the hour-of-day structure the models fit.
const timeCompress = 1500

// minWindow is serve's default Config.MinWindow: a target with this
// much history gets its first refit during RecoverWAL.
const minWindow = 8

// warmupShare is the warm-up before each measured phase, as a share of
// its length: the load runs unmeasured until the refit plane has left
// the restart transient (every target's first refits, then the change
// from incremental to full refits as tails grow).
const warmupShare = 0.2

// minBoots is the fewest boots a run times for setup_s; a run with fewer
// sub-runs boots each sub-run's WAL more than once.
const minBoots = 3

func (s servingSpec) contentType() string {
	if s.binary {
		return trace.BatchContentType
	}
	return "application/json"
}

// subResult is one sub-run's measurements.
type subResult struct {
	ingest, forecast []sample      // requests due in the measured phase
	acked            int           // records acked during the measured phase
	cpu              time.Duration // process CPU over the measured phase
	heapMB           float64
	boots            []float64 // boot-to-ready seconds
}

// runServing runs spec.subRuns sub-runs that split o.seconds of
// measurement. setup_s is the median over all boots and heap_live_mb the
// median over sub-runs; every other end-to-end figure is computed over
// the pooled measured phases of all sub-runs. A traced run is one
// sub-run, booted once, of the same length as an untraced run's.
func runServing(w io.Writer, name string, spec servingSpec, o options) (*report, error) {
	rep := newReport()
	n := spec.subRuns
	boots := max(1, (minBoots+n-1)/n)
	if o.trace {
		n, boots = 1, 1
	}
	seconds := o.seconds / float64(spec.subRuns)
	var all subResult
	var heap []float64
	for k := 0; k < n; k++ {
		res, err := runSub(w, name, spec, o, subSeed(o.seed, k), seconds, boots, rep)
		if err != nil {
			return nil, err
		}
		all.ingest = append(all.ingest, res.ingest...)
		all.forecast = append(all.forecast, res.forecast...)
		all.acked += res.acked
		all.cpu += res.cpu
		all.boots = append(all.boots, res.boots...)
		heap = append(heap, res.heapMB)
	}
	measured := seconds * float64(n)
	rep.set("setup_s", median(all.boots), fmt.Sprintf("median of %d boots", len(all.boots)))
	rep.set("ingest_rps", float64(all.acked)/measured, fmt.Sprintf("%d records acked in %d sub-runs of %gs", all.acked, n, seconds))
	note := func(samples []sample) string {
		return fmt.Sprintf("n=%d over %d sub-runs of %gs", len(samples), n, seconds)
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.5}, {"p99", 0.99}} {
		rep.set("ingest_"+q.name+"_ms", quantileOf(all.ingest, q.p, latencyMS), note(all.ingest))
		rep.set("forecast_"+q.name+"_ms", quantileOf(all.forecast, q.p, latencyMS), note(all.forecast))
		rep.set("forecast_age_"+q.name+"_s", quantileOf(all.forecast, q.p, ageS), note(all.forecast))
	}
	rep.set("cpu_ms_per_krec", float64(all.cpu)/1e6/(float64(records(all.ingest))/1000), "client and server share the process")
	rep.set("heap_live_mb", median(heap), fmt.Sprintf("median of %d sub-runs", len(heap)))
	if o.trace {
		tracingOverhead(w, o.out, name, rep)
	} else {
		saveUntraced(o.out, name, rep)
	}
	return rep, nil
}

// subSeed derives sub-run k's data seed from the run seed.
func subSeed(seed uint64, k int) uint64 { return seed*0x9e3779b97f4a7c15 + uint64(k) + 1 }

// runSub prepares one data set, boots the daemon on it, drives the
// warm-up and the measured phase, shuts down, and restarts from the WAL
// to check durability. Gates count into rep; a traced sub-run also fills
// rep's per-layer metrics and writes its spans.
func runSub(w io.Writer, name string, spec servingSpec, o options, seed uint64, seconds float64, boots int, rep *report) (*subResult, error) {
	res := &subResult{}
	clk := newClock()
	var rec *recorder
	if o.trace {
		rec = newRecorder(clk)
	}
	dir, err := os.MkdirTemp(o.out, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Preparation (untimed): the history goes straight into a WAL, and the
	// load continues the same stream in time order (open-loop bodies are
	// encoded here, closed-loop ones by a batchSource).
	gen := loadgen.NewGenerator(loadgen.GenConfig{
		Targets: o.size.targets, Seed: seed, TimeCompress: timeCompress, Burst: spec.burst,
	})
	targets := gen.Targets()
	led := newLedger()
	pristine := filepath.Join(dir, "history")
	hist, err := writeHistory(pristine, gen, o.size.history)
	if err != nil {
		return nil, fmt.Errorf("write history: %w", err)
	}
	histAck := clk.now()
	for as, n := range hist {
		acks := make([]int64, n)
		for i := range acks {
			acks[i] = histAck
		}
		led.acks[as], led.sent[as] = acks, n
	}
	loadSeconds := seconds * (1 + warmupShare)
	var bodies []batch
	if !spec.closed {
		if bodies, err = encodeJSON(gen, int(loadSeconds*spec.ingestRate)+1); err != nil {
			return nil, err
		}
	}

	var fits *fitLog
	var wrapFit func(serve.FitFunc) serve.FitFunc
	hooks := bootHooks{}
	var recoverStart, recoverEnd int64
	if rec != nil {
		fits = newFitLog(clk, led, rec)
		wrapFit = fits.wrap
		hooks.wrapHandler = rec.wrapHandler
		hooks.recovered = func(start, end time.Time) {
			recoverStart, recoverEnd = clk.at(start), clk.at(end)
			rec.add(span{Name: "setup.recover", Start: recoverStart, End: recoverEnd})
		}
	}

	// Set-up: boot to ready from a fresh copy of the history WAL; the last
	// boot serves.
	var h *host
	var walDir string
	for b := 0; b < boots; b++ {
		walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", b))
		if err := copyDir(pristine, walDir); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		h, err = boot(walDir, spec.fsync, serveConfig(spec.detect, wrapFit), hooks)
		if err != nil {
			return nil, err
		}
		res.boots = append(res.boots, time.Since(t0).Seconds())
		if b < boots-1 {
			if _, err := h.shutdown(false); err != nil {
				return nil, err
			}
		}
	}

	// Every target with enough history must be published by the boot.
	var readTargets []astopo.AS
	for _, as := range targets {
		_, ok := h.svc.Registry().Lookup(as)
		if ok {
			readTargets = append(readTargets, as)
		}
		if hist[as] >= minWindow {
			rep.gate(checkPublished(as, hist[as], ok))
		}
	}
	if len(readTargets) == 0 {
		h.shutdown(false)
		return nil, fmt.Errorf("no target published at set-up")
	}

	// The load runs through the warm-up and the measured phase without a
	// pause; only samples due in the measured phase count.
	c := newClient(h.url, o.size.conns, clk, led, rec)
	var ops []scheduledOp
	if !spec.closed {
		ops = openSchedule(bodies, readTargets, targets, spec, seed, loadSeconds)
	}
	var src *batchSource
	if spec.closed {
		src = newBatchSource(gen, spec.batch, o.size.ahead)
	}
	loadStart := clk.now()
	phaseStart := loadStart + int64(seconds*warmupShare*1e9)
	phaseEnd := phaseStart + int64(seconds*1e9)

	// CPU time at the phase start; traced runs also snapshot the service's
	// /metrics and the runtime there.
	var cpu0 time.Duration
	var before, after promSample
	var ms0, ms1 runtime.MemStats
	var ver0, ver1 uint64
	var scrapeErr error
	started := make(chan struct{})
	go func() {
		defer close(started)
		time.Sleep(time.Duration(phaseStart - clk.now()))
		cpu0 = cpuTime()
		if rec != nil {
			runtime.ReadMemStats(&ms0)
			ver0 = h.svc.Registry().Version()
			before, scrapeErr = scrapeMetrics(h.url)
		}
	}()
	if spec.closed {
		closedLoop(c, src.next, spec.contentType(), o.size.conns, spec.readEvery, readTargets, phaseEnd)
		if err := src.close(); err != nil {
			h.shutdown(false)
			return nil, fmt.Errorf("encode batch: %w", err)
		}
	} else {
		openLoop(c, ops, spec.contentType(), loadStart)
	}
	<-started
	cpu1 := cpuTime()
	scrapeAt := clk.now()
	if rec != nil {
		runtime.ReadMemStats(&ms1)
		ver1 = h.svc.Registry().Version()
		if scrapeErr == nil {
			after, scrapeErr = scrapeMetrics(h.url)
		}
	}
	c.close()
	if scrapeErr != nil {
		h.shutdown(false)
		return nil, fmt.Errorf("scrape /metrics: %w", scrapeErr)
	}

	st := c.stats
	rep.attempted += st.attempted
	rep.failed += st.failed
	for k, v := range st.failReasons {
		rep.failures[k] += v
	}
	fillFailedAges(st.forecast, float64(phaseEnd-loadStart)/1e9)
	in := func(s sample) bool { return s.due >= phaseStart && s.due < phaseEnd }
	ing, fc, lag := filter(st.ingest, in), filter(st.forecast, in), filter(st.sendLag, in)
	res.ingest, res.forecast, res.cpu = ing, fc, cpu1-cpu0
	res.acked = records(filter(st.ingest, func(s sample) bool { return s.done >= phaseStart && s.done < phaseEnd }))
	krec := float64(records(ing)) / 1000
	sendLagP99 := nanToZero(quantileOf(lag, 0.99, latencyMS))
	if !spec.closed {
		rep.gate(checkSendLag(sendLagP99))
	}
	acc := h.svc.Accuracy()
	accST, accSame := acc.Summary(serve.ModelST), acc.Summary(serve.ModelAlwaysSame)

	// Stop serving and refitting, like ddosd on SIGTERM, then weigh the
	// service's live state once the benchmark's own buffers are gone.
	ckpt, err := h.shutdown(true)
	if err != nil {
		return nil, err
	}
	rec.add(span{Name: "wal.checkpoint", Start: clk.now() - int64(ckpt), End: clk.now()})
	ackedPerTarget := led.ackedCounts()
	bodies, ops = nil, nil
	if rec == nil {
		led.acks = nil
		st.ingest, st.forecast, st.sendLag, lag = nil, nil, nil, nil
	}
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool victim caches held
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	runtime.KeepAlive(h.svc)
	res.heapMB = float64(heap.HeapAlloc) / (1 << 20)

	// Ack means durable: a fresh service recovers the WAL directory the
	// way a restart would, and must hold every acked record.
	recovered, err := recoverTotals(walDir, spec.fsync, serveConfig(spec.detect, nil), targets)
	if err != nil {
		return nil, fmt.Errorf("restart from wal: %w", err)
	}
	errs := checkDurability(ackedPerTarget, recovered)
	for range len(ackedPerTarget) - len(errs) {
		rep.gate(nil)
	}
	for _, err := range errs {
		rep.gate(err)
	}
	if rec == nil {
		return res, nil
	}

	// Traced run: per-layer metrics, the span artifact and the tables.
	rep.set("client.send_lag_p99_ms", sendLagP99, fmt.Sprintf("n=%d", len(lag)))
	rep.set("wal.checkpoint_ms", float64(ckpt)/1e6, "")
	rep.set("obs.acc_mag_relerr_st", accST.Magnitude.MeanRelErr, fmt.Sprintf("n=%d", accST.Magnitude.Samples))
	rep.set("obs.acc_hit_rate_st", accST.Timestamp.Rate, fmt.Sprintf("n=%d", accST.Timestamp.Samples))
	rep.set("obs.acc_mag_relerr_always_same", accSame.Magnitude.MeanRelErr, fmt.Sprintf("n=%d", accSame.Magnitude.Samples))
	rep.set("serve.registry.publishes", float64(ver1-ver0), "registry version delta")
	rep.set("runtime.alloc_kb_per_krec", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/krec, "whole process")
	rep.set("runtime.gc_cycles_per_krec", float64(ms1.NumGC-ms0.NumGC)/krec, "")
	rep.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "")
	var spans []span
	for _, s := range rec.snapshot() {
		if s.Start >= phaseStart || s.Name == "fit" {
			spans = append(spans, s)
		}
	}
	stages := layerMetrics(w, rep, spans, before, after, st.attempted, st.failed, krec*1000)
	refitPlane(w, rep, fits, stages, phaseStart, scrapeAt, recoverStart, recoverEnd, float64(ver1-ver0), krec)

	if err := reproLayers(w, rep, o, rec); err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
	all := rec.snapshot()
	if err := writeSpans(path, all); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nspans: %s (%d spans)\n", path, len(all))
	return res, nil
}

// writeHistory appends n generated records to a new WAL in dir, the way
// the daemon's ingest path frames them, and returns records per target.
func writeHistory(dir string, gen *loadgen.Generator, n int) (map[astopo.AS]uint64, error) {
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	counts := map[astopo.AS]uint64{}
	var payloads [][]byte
	flush := func() error {
		err := w.AppendBatch(payloads)
		payloads = payloads[:0]
		return err
	}
	for i := 0; i < n; i++ {
		a := gen.Next()
		p, err := trace.AppendRecord(nil, a)
		if err != nil {
			w.Close()
			return nil, err
		}
		payloads = append(payloads, p)
		counts[a.TargetAS]++
		if len(payloads) == 1024 {
			if err := flush(); err != nil {
				w.Close()
				return nil, err
			}
		}
	}
	if len(payloads) > 0 {
		if err := flush(); err != nil {
			w.Close()
			return nil, err
		}
	}
	return counts, w.Close()
}

// encodeBatch encodes the generator's next size records as one binary
// batch body, reusing buf as scratch.
func encodeBatch(gen *loadgen.Generator, size int, buf []byte) (batch, []byte, error) {
	b := batch{targets: make([]astopo.AS, size)}
	bw := byteWriter{buf[:0]}
	enc := trace.NewBatchEncoder(&bw)
	for j := range b.targets {
		a := gen.Next()
		if err := enc.Encode(a); err != nil {
			return batch{}, bw.b, err
		}
		b.targets[j] = a.TargetAS
	}
	b.body = append([]byte(nil), bw.b...)
	return b, bw.b, nil
}

// encodeJSON pre-encodes n one-record JSON bodies continuing the
// generator's stream.
func encodeJSON(gen *loadgen.Generator, n int) ([]batch, error) {
	out := make([]batch, n)
	for i := range out {
		a := gen.Next()
		body, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		out[i] = batch{body: body, targets: []astopo.AS{a.TargetAS}}
	}
	return out, nil
}

type byteWriter struct{ b []byte }

func (w *byteWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// openSchedule lays the open loop's requests on a fixed clock over
// seconds: ingest i at i/ingestRate, read j half an interval after
// j/readRate. Read targets follow the same Zipf popularity as the
// writes, drawn from the seed; a draw that lands on a target not
// published at set-up reads the most popular published one instead.
func openSchedule(bodies []batch, published, targets []astopo.AS, spec servingSpec, seed uint64, seconds float64) []scheduledOp {
	ok := make(map[astopo.AS]bool, len(published))
	for _, as := range published {
		ok[as] = true
	}
	n := min(int(seconds*spec.ingestRate), len(bodies))
	m := int(seconds * spec.readRate)
	ops := make([]scheduledOp, 0, n+m)
	writeGap := 1e9 / spec.ingestRate
	readGap := 1e9 / spec.readRate
	s := stats.NewSampler(seed ^ 0x5eed0f4ead)
	z := stats.NewZipf(len(targets), 1.1)
	for i, j := 0, 0; i < n || j < m; {
		wDue, rDue := float64(i)*writeGap, float64(j)*readGap+readGap/2
		if j >= m || (i < n && wDue <= rDue) {
			ops = append(ops, scheduledOp{due: int64(wDue), body: &bodies[i]})
			i++
			continue
		}
		as := targets[z.Sample(s)]
		if !ok[as] {
			as = published[0]
		}
		ops = append(ops, scheduledOp{due: int64(rDue), target: as})
		j++
	}
	return ops
}

// recoverTotals boots a fresh service on the WAL directory through
// RecoverWAL and returns every target's recovered all-time total.
func recoverTotals(dir, fsync string, cfg serve.Config, targets []astopo.AS) (map[astopo.AS]uint64, error) {
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(wal.Options{Dir: dir, Sync: policy})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	svc := serve.New(cfg)
	defer svc.Close()
	if _, err := svc.RecoverWAL(w, nil); err != nil {
		return nil, err
	}
	out := make(map[astopo.AS]uint64, len(targets))
	for _, as := range targets {
		_, total := svc.Store().Window(as)
		out[as] = total
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
