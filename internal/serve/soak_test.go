package serve_test

// The soak/regression gate for the serving stack (DESIGN.md §8): loadgen
// traffic perturbed by every chaos stream fault, refits slowed and failed
// by the chaos refit injector, concurrent forecast readers — all under
// -race in CI's soak-short lane. The assertions are the harness's
// correctness contract:
//
//  1. every forecast served during the storm is finite and in range;
//  2. provenance stays consistent across registry swaps (snapshot version
//     and per-target generation never move backwards, fit metadata is
//     coherent);
//  3. 429-style shedding engages under refit backlog and recovers once the
//     injected faults stop;
//  4. a corrupted snapshot load fails cleanly without touching the
//     published registry.
//
// The test is -short-guarded: `go test -short` (the race lane over the
// whole repo) skips it, while the dedicated soak-short CI job runs it via
// `go test -race -run TestSoak` with a scaled-up record budget.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"net/http"
	"net/http/httptest"

	"repro/internal/astopo"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/loadgen"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

// finiteForecast returns an error naming the first non-finite or
// out-of-range field.
func finiteForecast(fc *serve.Forecast) error {
	fields := map[string]float64{
		"interval_sec": fc.IntervalSec,
		"hour":         fc.Hour,
		"day":          fc.Day,
		"duration_sec": fc.DurationSec,
		"magnitude":    fc.Magnitude,
	}
	for name, v := range fields {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", name, v)
		}
	}
	if fc.Hour < 0 || fc.Hour >= 24 {
		return fmt.Errorf("hour %v out of [0,24)", fc.Hour)
	}
	if fc.Day < 1 || fc.Day > 31 {
		return fmt.Errorf("day %v out of [1,31]", fc.Day)
	}
	if fc.IntervalSec < 0 || fc.DurationSec < 0 || fc.Magnitude < 0 {
		return fmt.Errorf("negative forecast value: %+v", fc)
	}
	return nil
}

// provenanceError checks fit metadata coherence.
func provenanceError(fc *serve.Forecast, as astopo.AS) error {
	switch {
	case fc.TargetAS != as:
		return fmt.Errorf("forecast for AS%d answered AS%d", as, fc.TargetAS)
	case fc.ModelGeneration == 0:
		return errors.New("zero model generation")
	case fc.WindowSize <= 0:
		return fmt.Errorf("window size %d", fc.WindowSize)
	case fc.Observations < uint64(fc.WindowSize):
		return fmt.Errorf("observations %d below window %d", fc.Observations, fc.WindowSize)
	case fc.FittedAt.IsZero():
		return errors.New("zero FittedAt")
	case fc.Family == "":
		return errors.New("empty family")
	}
	return nil
}

func TestSoakLoadChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode (the soak-short CI lane runs it with -race)")
	}

	const (
		targets = 8
		records = 12000
		readers = 3
	)
	refitFaults := &chaos.RefitFaults{
		Seed:      7,
		SlowProb:  0.6,
		Delay:     8 * time.Millisecond,
		FailProb:  0.2,
		MaxFaults: 80, // cap so shedding can recover at the tail
	}
	cfg := serve.Config{
		Shards:       4,
		Window:       64,
		MinWindow:    6,
		MinSTWindow:  32, // the spatiotemporal tree engages mid-soak
		RefitEvery:   2,
		QueueDepth:   8,
		LagWatermark: 4,
		BatchSize:    4,
		Seed:         7,
		Temporal:     core.TemporalConfig{MaxP: 1, MaxQ: 1},
		Spatial: core.SpatialConfig{
			Delays: []int{2},
			Hidden: []int{2},
			Train:  nn.TrainConfig{Epochs: 8},
		},
		WrapFit: refitFaults.Wrap,
		Detect:  &detect.Config{AlertCap: 1024},
	}
	svc := serve.New(cfg)
	defer svc.Close()

	// Half the targets run labeled attack bursts so the detection tier has
	// something real to raise on — and clear after — through all the
	// stream chaos below.
	gen := loadgen.NewGenerator(loadgen.GenConfig{
		Targets: targets, Seed: 13, TimeCompress: 24,
		Burst: loadgen.BurstConfig{
			Every: 30 * time.Minute, Len: 2 * time.Minute,
			Gap: 500 * time.Millisecond, Targets: targets / 2,
		},
	})
	streamFaults := &chaos.StreamFaults{
		Seed: 13, DropProb: 0.03, DupProb: 0.05, ReorderProb: 0.08,
		SkewProb: 0.1, SkewMax: 2 * time.Hour,
	}
	src := streamFaults.Stream(gen.Next)

	// Concurrent forecast readers assert finiteness and monotone
	// provenance for the whole run.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		served   atomic.Int64
		readerMu sync.Mutex
		readErr  error
	)
	fail := func(err error) {
		readerMu.Lock()
		if readErr == nil {
			readErr = err
		}
		readerMu.Unlock()
	}
	fanout := gen.Targets()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastVersion uint64
			lastGen := make(map[astopo.AS]uint64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				as := fanout[(r+i)%len(fanout)]
				fc, err := svc.Forecast(as)
				if err != nil {
					continue // not yet published
				}
				served.Add(1)
				if err := finiteForecast(fc); err != nil {
					fail(fmt.Errorf("reader %d AS%d: %w", r, as, err))
					return
				}
				if err := provenanceError(fc, as); err != nil {
					fail(fmt.Errorf("reader %d AS%d: %w", r, as, err))
					return
				}
				if fc.SnapshotVersion < lastVersion {
					fail(fmt.Errorf("snapshot version went backwards: %d -> %d", lastVersion, fc.SnapshotVersion))
					return
				}
				lastVersion = fc.SnapshotVersion
				if g := lastGen[as]; fc.ModelGeneration < g {
					fail(fmt.Errorf("AS%d generation went backwards: %d -> %d", as, g, fc.ModelGeneration))
					return
				}
				lastGen[as] = fc.ModelGeneration
			}
		}(r)
	}

	// Phase 1: the storm. Open loop paces the run so refits, faults, and
	// reads interleave rather than the whole load landing in one burst.
	rep, err := loadgen.Run(loadgen.Config{
		Mode: loadgen.OpenLoop, Records: records, Workers: 4,
		Rate: 6000, RateEnd: 18000,
	}, src, loadgen.ServiceSink{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d sink errors during the storm", rep.Errors)
	}
	if rep.Shed == 0 {
		t.Fatalf("shedding never engaged under slowed refits (report:\n%s)", rep)
	}
	if rep.Accepted == 0 {
		t.Fatal("no records accepted during the storm")
	}

	// Phase 2: recovery. Faults are capped out; the backlog must drain and
	// ingest must come back without shedding.
	svc.Flush()
	recovered := false
	fresh := gen.Next()
	for attempt := 0; attempt < 100; attempt++ {
		if _, err := ingestOne(svc, fresh); !errors.Is(err, serve.ErrShedding) {
			if err != nil {
				t.Fatalf("post-storm ingest failed: %v", err)
			}
			recovered = true
			break
		}
		svc.Flush()
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatal("shedding never recovered after the faults capped out")
	}
	svc.Flush()

	// Let the readers hammer the settled registry briefly, then stop them.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	readerMu.Lock()
	defer readerMu.Unlock()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if served.Load() == 0 {
		t.Fatal("no forecasts served during the soak")
	}

	// Phase 3: every target is served, finite, and coherent at rest.
	for _, as := range fanout {
		fc, err := svc.Forecast(as)
		if err != nil {
			t.Fatalf("AS%d unserved after the soak: %v", as, err)
		}
		if err := finiteForecast(fc); err != nil {
			t.Fatalf("AS%d settled forecast: %v", as, err)
		}
		if err := provenanceError(fc, as); err != nil {
			t.Fatalf("AS%d settled provenance: %v", as, err)
		}
	}
	if refitFaults.Slowed() == 0 || refitFaults.Failed() == 0 {
		t.Fatalf("refit chaos never fired: slowed %d failed %d",
			refitFaults.Slowed(), refitFaults.Failed())
	}

	// Phase 4: snapshot round trip survives the soak; a corrupted load
	// fails cleanly and leaves the published registry untouched.
	var snap bytes.Buffer
	if err := svc.Registry().WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := serve.NewRegistry()
	if err := restored.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("clean snapshot rejected after soak: %v", err)
	}
	if restored.Size() != svc.Registry().Size() {
		t.Fatalf("restored %d targets, want %d", restored.Size(), svc.Registry().Size())
	}

	// Phase 3b: observability survived the storm — the tracer retained
	// complete refit span trees, the accuracy tracker scored arrivals for
	// the baselines (model kinds depend on publish timing; the baselines
	// score every in-order non-first arrival), and the whole accuracy
	// snapshot marshals.
	traces := svc.Tracer().Snapshot()
	if len(traces) == 0 {
		t.Fatal("trace ring empty after the soak")
	}
	completeRefit := false
	for _, root := range traces {
		if root.Name == "refit" && len(root.Children) > 0 {
			completeRefit = true
			break
		}
	}
	if !completeRefit {
		t.Fatal("no complete refit span tree retained after the soak")
	}
	accSnap := svc.Accuracy().Snapshot()
	for _, model := range []string{"always_same", "always_mean"} {
		if accSnap.Models[model].Samples == 0 {
			t.Fatalf("accuracy tracker never scored %s during the soak", model)
		}
	}
	for name, sum := range accSnap.Models {
		for measure, v := range map[string]float64{
			"magnitude": sum.Magnitude.MeanRelErr,
			"duration":  sum.Duration.MeanRelErr,
			"hit_rate":  sum.Timestamp.Rate,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s %s error is %v after the soak", name, measure, v)
			}
		}
	}

	// Phase 3c: the detection tier survived the same storm. Bursts must
	// have raised alerts, hysteresis must have cleared some of them (the
	// stream faults skew and reorder right through burst boundaries), the
	// books must balance, and the /alerts endpoint and ddosd_detect_*
	// metrics must expose it all.
	det := svc.Store().Detector()
	if det == nil {
		t.Fatal("detector not attached despite Detect config")
	}
	ds := det.Stats()
	if ds.Raised == 0 || ds.Cleared == 0 {
		t.Fatalf("detect tier never cycled under chaos: %+v", ds)
	}
	if ds.Active < 0 || ds.Active != int64(ds.Raised)-int64(ds.Cleared) {
		t.Fatalf("detect books don't balance: %+v", ds)
	}
	if ds.Records == 0 {
		t.Fatalf("detector observed no records: %+v", ds)
	}
	srv := httptest.NewServer(svc.Handler())
	alertsResp, err := http.Get(srv.URL + "/alerts?limit=16")
	if err != nil {
		t.Fatal(err)
	}
	var alerts serve.AlertsReport
	err = json.NewDecoder(alertsResp.Body).Decode(&alerts)
	alertsResp.Body.Close()
	if err != nil {
		t.Fatalf("/alerts did not parse after the soak: %v", err)
	}
	if !alerts.Enabled || alerts.Stats == nil || len(alerts.Alerts) == 0 {
		t.Fatalf("/alerts report incomplete after the soak: %+v", alerts)
	}
	metricsResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody := new(bytes.Buffer)
	_, err = metricsBody.ReadFrom(metricsResp.Body)
	metricsResp.Body.Close()
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ddosd_detect_records_total", "ddosd_detect_alerts_total", "ddosd_detect_active_alerts"} {
		if !strings.Contains(metricsBody.String(), name) {
			t.Fatalf("%s missing from /metrics after the soak", name)
		}
	}

	version, size := svc.Registry().Version(), svc.Registry().Size()
	corrupter := chaos.NewCorrupter(bytes.NewReader(snap.Bytes()), 99, 0.001)
	err = svc.Registry().ReadSnapshot(corrupter)
	if corrupter.Flipped() == 0 {
		t.Fatal("corrupter flipped nothing over the snapshot bytes")
	}
	if err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
	if svc.Registry().Version() != version || svc.Registry().Size() != size {
		t.Fatalf("failed snapshot load mutated the registry: version %d->%d size %d->%d",
			version, svc.Registry().Version(), size, svc.Registry().Size())
	}
	for _, as := range fanout {
		if _, err := svc.Forecast(as); err != nil {
			t.Fatalf("AS%d lost after rejected corrupt snapshot: %v", as, err)
		}
	}
}

// mirrorSink feeds the service and keeps a lossless reference copy of
// every record the service actually accepted — the oracle the WAL crash
// test compares the replayed store against.
type mirrorSink struct {
	svc *serve.Service
	ref *serve.Store
}

func (m mirrorSink) IngestBatch(recs []*trace.Attack) (loadgen.Result, error) {
	res, err := loadgen.ServiceSink{Svc: m.svc}.IngestBatch(recs)
	if err == nil && !res.Shed {
		// The reference dedups exactly as the service did.
		for _, a := range recs {
			m.ref.Ingest(a)
		}
	}
	return res, err
}

// durableImage serializes a store's durable state: the rolling windows
// and totals, with the since-refit scheduler hint zeroed (refit marks are
// not WAL-logged — losing them only makes the next refit come earlier).
func durableImage(t *testing.T, s *serve.Store) []byte {
	t.Helper()
	cp := s.Checkpoint()
	for i := range cp {
		cp[i].SinceRefit = 0
	}
	buf, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSoakWALCrashRecovery is the end-to-end durability gate: open-loop
// load with stream chaos into a WAL-backed service (interval fsync, tiny
// segments so rotation, background checkpointing, and compaction all
// engage), then an abrupt kill — the WAL directory is imaged as-is, with
// a half-written frame appended, exactly what SIGKILL mid-append leaves
// behind. A fresh service recovering from the image must hold every
// acked record (byte-identical to the lossless reference store) and
// serve forecasts again before it would start listening.
func TestSoakWALCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode (the soak-short CI lane runs it with -race)")
	}

	cfg := serve.Config{
		Shards:     4,
		Window:     64,
		MinWindow:  6,
		RefitEvery: 8,
		QueueDepth: 64,
		BatchSize:  8,
		Seed:       7,
		Temporal:   core.TemporalConfig{MaxP: 1, MaxQ: 1},
		Spatial: core.SpatialConfig{
			Delays: []int{2},
			Hidden: []int{2},
			Train:  nn.TrainConfig{Epochs: 8},
		},
	}
	svc := serve.New(cfg)
	defer svc.Close()

	dir := t.TempDir()
	policy, err := wal.ParseSyncPolicy("5ms")
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 8 << 10, Sync: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	svc.AttachWAL(w, nil)

	gen := loadgen.NewGenerator(loadgen.GenConfig{Targets: 6, Seed: 17, TimeCompress: 24})
	streamFaults := &chaos.StreamFaults{Seed: 17, DupProb: 0.05, ReorderProb: 0.05}
	src := streamFaults.Stream(gen.Next)

	// Workers: 1 keeps the ack order deterministic so the reference store
	// is an exact oracle, not just a superset.
	ref := serve.NewStore(cfg.Shards, cfg.Window)
	rep, err := loadgen.Run(loadgen.Config{
		Mode: loadgen.OpenLoop, Records: 4000, Workers: 1, Rate: 20000,
	}, src, mirrorSink{svc: svc, ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Accepted == 0 {
		t.Fatalf("load phase: %d errors, %d accepted", rep.Errors, rep.Accepted)
	}
	// Force at least one checkpoint + compaction cycle over the sealed
	// segments the tiny SegmentBytes produced.
	if err := svc.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	stats, ok := svc.WALStats()
	if !ok {
		t.Fatal("WAL not attached")
	}
	if stats.ActiveSeq < 2 {
		t.Fatalf("segments never rotated under 8KiB cap: %+v", stats)
	}

	// A second burst after the checkpoint: these records exist only in the
	// WAL tail, so recovery has to merge both sources.
	rep, err = loadgen.Run(loadgen.Config{
		Mode: loadgen.OpenLoop, Records: 500, Workers: 1, Rate: 20000,
	}, src, mirrorSink{svc: svc, ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Accepted == 0 {
		t.Fatalf("post-checkpoint burst: %d errors, %d accepted", rep.Errors, rep.Accepted)
	}

	// The kill: freeze the WAL exactly as it sits on disk (detach stops the
	// background checkpointer but never syncs or checkpoints — the file
	// bytes are a faithful SIGKILL image) and copy it aside with a torn
	// half-frame appended at the tail.
	svc.DetachWAL()
	img := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(e.Name(), ".wal") {
			newest = filepath.Join(img, e.Name())
		}
	}
	if newest == "" {
		t.Fatal("no WAL segment in the crash image")
	}
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2 := serve.New(cfg)
	defer svc2.Close()
	w2, err := wal.Open(wal.Options{Dir: img})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rs, err := svc2.RecoverWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Truncated {
		t.Fatalf("torn tail not reported: %+v", rs)
	}
	if rs.CheckpointTargets == 0 || rs.Replayed == 0 {
		t.Fatalf("recovery exercised only one source: %+v", rs)
	}
	if got, want := durableImage(t, svc2.Store()), durableImage(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("replayed store diverges from the lossless reference (recovery %+v)", rs)
	}
	if rs.Refits == 0 {
		t.Fatalf("no refits re-scheduled after recovery: %+v", rs)
	}
	served := 0
	for _, as := range gen.Targets() {
		if fc, err := svc2.Forecast(as); err == nil {
			if err := finiteForecast(fc); err != nil {
				t.Fatalf("recovered AS%d forecast: %v", as, err)
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no target serving forecasts after crash recovery")
	}
}
