package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/trace"
)

// testConfig keeps refits cheap: tiny NAR grid, few epochs, short windows.
func testConfig() Config {
	return Config{
		Shards:      4,
		Window:      64,
		MinWindow:   6,
		MinSTWindow: 1 << 20, // no spatiotemporal tree unless a test opts in
		RefitEvery:  4,
		QueueDepth:  64,
		BatchSize:   8,
		Seed:        7,
		Temporal:    core.TemporalConfig{MaxP: 1, MaxQ: 1},
		Spatial: core.SpatialConfig{
			Delays: []int{2},
			Hidden: []int{2},
			Train:  nn.TrainConfig{Epochs: 10},
		},
	}
}

// mkAttacks builds n chronological attacks on one target, IDs starting at
// idBase+1.
func mkAttacks(as astopo.AS, idBase, n int) []trace.Attack {
	t0 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]trace.Attack, n)
	for i := range out {
		out[i] = trace.Attack{
			ID:          idBase + i + 1,
			Family:      "DirtJumper",
			Start:       t0.Add(time.Duration(i) * 3 * time.Hour),
			DurationSec: float64(600 + 60*(i%5)),
			TargetIP:    astopo.IPv4(uint32(as)<<8 | uint32(i)),
			TargetAS:    as,
			Bots:        make([]astopo.IPv4, 3+i%5),
		}
	}
	return out
}

func postAttacks(t *testing.T, url string, attacks []trace.Attack) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(encodeJSON(t, attacks)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// --- store ---------------------------------------------------------------

func TestStoreShardRounding(t *testing.T) {
	if got := NewStore(5, 8).Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	if got := NewStore(0, 8).Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
}

func TestStoreDedupAndOrder(t *testing.T) {
	s := NewStore(4, 16)
	attacks := mkAttacks(64512, 0, 3)
	// Ingest out of order: 2, 0, 1.
	for _, i := range []int{2, 0, 1} {
		if _, _, ok := s.Ingest(&attacks[i]); !ok {
			t.Fatalf("record %d not accepted", i)
		}
	}
	if _, _, ok := s.Ingest(&attacks[1]); ok {
		t.Fatal("duplicate ID accepted")
	}
	window, total := s.Window(64512)
	if total != 3 || len(window) != 3 {
		t.Fatalf("window %d total %d, want 3/3", len(window), total)
	}
	for i := 1; i < len(window); i++ {
		if window[i].Start.Before(window[i-1].Start) {
			t.Fatal("window not chronological")
		}
	}
}

func TestStoreWindowTrim(t *testing.T) {
	s := NewStore(1, 4)
	attacks := mkAttacks(64512, 0, 6)
	for i := range attacks {
		s.Ingest(&attacks[i])
	}
	window, total := s.Window(64512)
	if len(window) != 4 {
		t.Fatalf("window %d, want 4 (trimmed)", len(window))
	}
	if total != 6 {
		t.Fatalf("total %d, want 6", total)
	}
	if window[0].ID != 3 || window[3].ID != 6 {
		t.Fatalf("window kept IDs %d..%d, want the latest 3..6", window[0].ID, window[3].ID)
	}
}

func TestStoreMarkRefitted(t *testing.T) {
	s := NewStore(1, 16)
	attacks := mkAttacks(64512, 0, 5)
	var since int
	for i := range attacks {
		since, _, _ = s.Ingest(&attacks[i])
	}
	if since != 5 {
		t.Fatalf("sinceRefit %d, want 5", since)
	}
	s.MarkRefitted(64512, 3)
	more := mkAttacks(64512, 100, 1)
	more[0].Start = attacks[4].Start.Add(time.Hour)
	since, _, _ = s.Ingest(&more[0])
	if since != 3 {
		t.Fatalf("sinceRefit after partial mark %d, want 3 (5-3+1)", since)
	}
}

// --- registry ------------------------------------------------------------

func TestRegistryUnknownTarget(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Forecast(1); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v, want ErrUnknownTarget", err)
	}
}

func TestRegistrySnapshotSwapConsistency(t *testing.T) {
	cfg := testConfig().withDefaults()
	r := NewRegistry()
	tm1, err := fitTarget(64512, mkAttacks(64512, 0, 12), 12, r.NextGeneration(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Publish([]*TargetModels{tm1})
	v1 := r.Version()
	fc1, err := r.Forecast(64512)
	if err != nil {
		t.Fatal(err)
	}

	// Publish a second generation; the old forecast value must be
	// reproducible from the snapshot it came from, and the new one must
	// carry the bumped version and generation.
	tm2, err := fitTarget(64512, mkAttacks(64512, 100, 16), 28, r.NextGeneration(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Publish([]*TargetModels{tm2})
	if r.Version() != v1+1 {
		t.Fatalf("version %d, want %d", r.Version(), v1+1)
	}
	fc2, err := r.Forecast(64512)
	if err != nil {
		t.Fatal(err)
	}
	if fc2.ModelGeneration <= fc1.ModelGeneration {
		t.Fatalf("generation did not advance: %d -> %d", fc1.ModelGeneration, fc2.ModelGeneration)
	}
	if fc2.SnapshotVersion != fc1.SnapshotVersion+1 {
		t.Fatalf("snapshot version %d -> %d, want +1", fc1.SnapshotVersion, fc2.SnapshotVersion)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig().withDefaults()
	r := NewRegistry()
	var batch []*TargetModels
	for i, as := range []astopo.AS{64512, 64513, 64514} {
		tm, err := fitTarget(as, mkAttacks(as, i*100, 12), 12, r.NextGeneration(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tm)
	}
	r.Publish(batch)

	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if err := r2.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r2.Version() != r.Version() || r2.Size() != r.Size() {
		t.Fatalf("restored version/size %d/%d, want %d/%d", r2.Version(), r2.Size(), r.Version(), r.Size())
	}
	for _, as := range r.Targets() {
		want, err := r.Forecast(as)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r2.Forecast(as)
		if err != nil {
			t.Fatalf("restored registry AS%d: %v", as, err)
		}
		// JSON comparison sidesteps monotonic-clock noise in time fields.
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		if !bytes.Equal(wj, gj) {
			t.Fatalf("AS%d forecast diverged after round trip:\n  want %s\n  got  %s", as, wj, gj)
		}
	}
	// New fits after a restore must not reuse generation numbers.
	if g := r2.NextGeneration(); g <= batch[len(batch)-1].Generation {
		t.Fatalf("generation %d not past restored max %d", g, batch[len(batch)-1].Generation)
	}
}

func TestReadSnapshotRejectsPartialTargets(t *testing.T) {
	r := NewRegistry()
	err := r.ReadSnapshot(strings.NewReader(`{"version":1,"targets":[{"as":5,"family":"x"}]}`))
	if err == nil || !strings.Contains(err.Error(), "missing models") {
		t.Fatalf("err = %v, want missing-models rejection", err)
	}
}

// --- scheduler admission (no run loop: deterministic) --------------------

func TestSchedulerBackpressure(t *testing.T) {
	cfg := testConfig().withDefaults()
	cfg.QueueDepth = 2
	cfg.LagWatermark = 1
	tel := newTelemetry(nil)
	// Construct without newScheduler so no drain loop runs.
	s := &scheduler{
		store:   NewStore(cfg.Shards, cfg.Window),
		reg:     NewRegistry(),
		cfg:     cfg,
		tel:     tel,
		queue:   make(chan astopo.AS, cfg.QueueDepth),
		pending: make(map[astopo.AS]bool),
	}
	if s.Overloaded() {
		t.Fatal("empty scheduler overloaded")
	}
	if !s.TryEnqueue(1) || !s.TryEnqueue(1) {
		t.Fatal("enqueue/coalesce failed")
	}
	if s.Lag() != 1 {
		t.Fatalf("coalesced lag %d, want 1", s.Lag())
	}
	if !s.TryEnqueue(2) {
		t.Fatal("second target rejected with queue space left")
	}
	if !s.Overloaded() {
		t.Fatal("lag 2 > watermark 1 should shed")
	}
	if s.TryEnqueue(3) {
		t.Fatal("full queue accepted a third target")
	}
	if tel.refitsDropped.Value() != 1 {
		t.Fatalf("dropped counter %d, want 1", tel.refitsDropped.Value())
	}
}

func TestIngestShedsOverWatermark(t *testing.T) {
	cfg := testConfig().withDefaults()
	svc := New(cfg)
	defer svc.Close()
	svc.sched.lag.Store(int64(cfg.LagWatermark) + 1) // simulate backlog
	a := mkAttacks(64512, 0, 1)
	if _, err := svc.Ingest(&a[0]); !errors.Is(err, ErrShedding) {
		t.Fatalf("err = %v, want ErrShedding", err)
	}
	svc.sched.lag.Store(0)

	// The HTTP layer maps it to 429 with Retry-After.
	svcShed := New(cfg)
	defer svcShed.Close()
	svcShed.sched.lag.Store(int64(cfg.LagWatermark) + 1)
	srv := httptest.NewServer(svcShed.Handler())
	defer srv.Close()
	resp := postAttacks(t, srv.URL, a)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	svcShed.sched.lag.Store(0)
}

// --- validation ----------------------------------------------------------

func TestValidateRecord(t *testing.T) {
	good := mkAttacks(64512, 0, 1)[0]
	cases := []struct {
		name   string
		mutate func(*trace.Attack)
	}{
		{"missing id", func(a *trace.Attack) { a.ID = 0 }},
		{"missing family", func(a *trace.Attack) { a.Family = "" }},
		{"missing start", func(a *trace.Attack) { a.Start = time.Time{} }},
		{"negative duration", func(a *trace.Attack) { a.DurationSec = -1 }},
		{"missing target_as", func(a *trace.Attack) { a.TargetAS = 0 }},
	}
	if err := ValidateRecord(&good); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for _, tc := range cases {
		a := good
		tc.mutate(&a)
		if err := ValidateRecord(&a); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// --- end to end ----------------------------------------------------------

func TestEndToEndIngestRefitForecast(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const target = astopo.AS(64512)
	attacks := mkAttacks(target, 0, 16)

	// Below MinWindow: records accepted but no model yet.
	resp := postAttacks(t, srv.URL, attacks[:3])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if res := decodeBody[IngestResult](t, resp); res.Ingested != 3 {
		t.Fatalf("ingested %d, want 3", res.Ingested)
	}
	svc.Flush()
	resp, err := http.Get(srv.URL + "/forecast?target=64512")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("warming-up status %d, want 404", resp.StatusCode)
	}
	if e := decodeBody[map[string]string](t, resp); !strings.Contains(e["error"], "warming up") {
		t.Fatalf("warming-up error %q", e["error"])
	}

	// Rest of the window, including a duplicate batch.
	resp = postAttacks(t, srv.URL, attacks)
	res := decodeBody[IngestResult](t, resp)
	if res.Ingested != 13 || res.Duplicates != 3 {
		t.Fatalf("ingested/duplicates %d/%d, want 13/3", res.Ingested, res.Duplicates)
	}
	svc.Flush()

	resp, err = http.Get(srv.URL + "/forecast?target=64512")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d, want 200", resp.StatusCode)
	}
	fc := decodeBody[Forecast](t, resp)
	if fc.TargetAS != target || fc.Family != "DirtJumper" {
		t.Fatalf("forecast identity %+v", fc)
	}
	if fc.Hour < 0 || fc.Hour >= 24 || fc.Day < 1 || fc.Day > 31 {
		t.Fatalf("forecast hour/day out of range: %v/%v", fc.Hour, fc.Day)
	}
	if fc.DurationSec < 0 || fc.Magnitude < 0 || fc.IntervalSec < 0 {
		t.Fatalf("negative forecast values: %+v", fc)
	}
	last := attacks[len(attacks)-1].Start
	if !fc.NextStart.After(last) {
		t.Fatalf("next start %v not after last attack %v", fc.NextStart, last)
	}
	if fc.Models.Temporal.Interval.Kind == "" || fc.Models.Spatial.Duration.Kind == "" {
		t.Fatalf("missing model descriptors: %+v", fc.Models)
	}

	// Unknown target.
	resp, err = http.Get(srv.URL + "/forecast?target=999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-target status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad target parameter.
	resp, err = http.Get(srv.URL + "/forecast?target=abc")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-target status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Healthz reflects the served target.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[Health](t, resp)
	if h.Status != "ok" || h.TargetsKnown != 1 || h.TargetsServed != 1 {
		t.Fatalf("healthz %+v", h)
	}
	if h.SnapshotVersion == 0 {
		t.Fatal("healthz snapshot version 0 after publish")
	}

	// Metrics exposition mentions the ingest counter with the right count.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "ddosd_ingest_records_total 16") {
		t.Fatalf("metrics missing ingest counter:\n%s", raw)
	}
	if !strings.Contains(string(raw), "ddosd_refits_total") {
		t.Fatalf("metrics missing refit counter:\n%s", raw)
	}
}

func TestIngestRejectsBadRecordsAndMethods(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()

	bad := mkAttacks(64512, 0, 2)
	bad[1].Family = ""
	resp = postAttacks(t, srv.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad record status %d, want 400", resp.StatusCode)
	}
	// A mid-batch failure reports what was already committed so the client
	// can resume instead of resending the whole batch.
	e := decodeBody[IngestResult](t, resp)
	if !strings.Contains(e.Error, "record 2") {
		t.Fatalf("bad-record error %q does not locate the record", e.Error)
	}
	if e.Ingested != 1 || e.Duplicates != 0 || e.Rejected != 1 {
		t.Fatalf("error body counts = %+v, want ingested 1, duplicates 0, rejected 1", e)
	}

	// Malformed JSON.
	resp, err = http.Post(srv.URL+"/ingest", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestIngestBatchCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatchRecords = 4
	svc := New(cfg)
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := postAttacks(t, srv.URL, mkAttacks(64512, 0, 5))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", resp.StatusCode)
	}
}

func TestSpatiotemporalEngagesOnLongWindows(t *testing.T) {
	cfg := testConfig()
	cfg.MinSTWindow = 24
	cfg.Window = 64
	svc := New(cfg)
	defer svc.Close()

	attacks := mkAttacks(64512, 0, 40)
	for i := range attacks {
		if _, err := svc.Ingest(&attacks[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush()
	fc, err := svc.Forecast(64512)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Models.Spatiotemporal == nil {
		t.Fatal("spatiotemporal tree did not engage on a 40-record window")
	}
	if fc.Models.Spatiotemporal.Hour.Leaves < 1 {
		t.Fatalf("degenerate hour tree: %+v", fc.Models.Spatiotemporal)
	}
	if fc.Hour < 0 || fc.Hour >= 24 || fc.Day < 1 || fc.Day > 31 || fc.DurationSec < 0 {
		t.Fatalf("ST forecast out of range: %+v", fc)
	}
}

func TestWarmStart(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	a := mkAttacks(64512, 0, 12)
	a = append(a, mkAttacks(64513, 100, 12)...)
	ds, err := trace.New(a)
	if err != nil {
		t.Fatal(err)
	}
	n, err := svc.WarmStart(ds)
	if err != nil {
		t.Fatal(err)
	}
	if n != 24 {
		t.Fatalf("warm start ingested %d, want 24", n)
	}
	for _, as := range []astopo.AS{64512, 64513} {
		if _, err := svc.Forecast(as); err != nil {
			t.Fatalf("AS%d not served after warm start: %v", as, err)
		}
	}
}

// TestForecastHotPathDoesNotRefit pins the acceptance criterion that the
// forecast path never fits models: with the scheduler stopped, repeated
// forecasts leave the refit counter and snapshot version unchanged.
func TestForecastHotPathDoesNotRefit(t *testing.T) {
	svc := New(testConfig())
	a := mkAttacks(64512, 0, 12)
	for i := range a {
		if _, err := svc.Ingest(&a[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush()
	svc.Close() // scheduler stopped: any further fit would have to happen inline
	refits := svc.tel.refitsDone.Value()
	version := svc.reg.Version()
	for i := 0; i < 100; i++ {
		if _, err := svc.Forecast(64512); err != nil {
			t.Fatal(err)
		}
	}
	if svc.tel.refitsDone.Value() != refits || svc.reg.Version() != version {
		t.Fatal("forecast path triggered refit activity")
	}
}

func TestDominantFamily(t *testing.T) {
	w := []trace.Attack{{Family: "b"}, {Family: "a"}, {Family: "b"}, {Family: "a"}}
	if f := dominantFamily(w); f != "a" {
		t.Fatalf("tie broke to %q, want lexicographic winner \"a\"", f)
	}
	w = append(w, trace.Attack{Family: "b"})
	if f := dominantFamily(w); f != "b" {
		t.Fatalf("dominant %q, want \"b\"", f)
	}
}
