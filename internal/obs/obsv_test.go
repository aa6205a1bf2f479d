package obs

// Observability-layer tests (DESIGN.md §14): trace-context propagation
// primitives, forest stitching, drop accounting, runtime self-telemetry,
// and the SLO-breach flight recorder.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/metrics"
)

func TestTraceContextRoundTrip(t *testing.T) {
	ctx := TraceContext{TraceID: 0xdeadbeefcafe0123, SpanID: 0x42}
	s := ctx.String()
	got, ok := ParseTraceContext(s)
	if !ok || got != ctx {
		t.Fatalf("round trip %q -> %+v ok=%v", s, got, ok)
	}
	for _, bad := range []string{"", "nope", "123-456x", "deadbeefcafe0123", s + "-ff",
		"0000000000000000-0000000000000000"} {
		if c, ok := ParseTraceContext(bad); ok && c.Valid() {
			t.Errorf("ParseTraceContext(%q) accepted as %+v", bad, c)
		}
	}
}

func TestTraceContextFromRequest(t *testing.T) {
	ctx := TraceContext{TraceID: 7, SpanID: 9}

	r := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	r.Header.Set(TraceHeader, ctx.String())
	if got, ok := ContextFromRequest(r); !ok || got != ctx {
		t.Fatalf("header context = %+v ok=%v", got, ok)
	}

	// Query fallback: redirected requests carry the context in the
	// Location URL because Go clients replay the original headers on 307.
	r = httptest.NewRequest(http.MethodPost, "/ingest?"+TraceParam+"="+ctx.String(), nil)
	if got, ok := ContextFromRequest(r); !ok || got != ctx {
		t.Fatalf("query context = %+v ok=%v", got, ok)
	}

	// Header wins over query when both are present.
	hdr := TraceContext{TraceID: 11, SpanID: 13}
	r = httptest.NewRequest(http.MethodPost, "/ingest?"+TraceParam+"="+ctx.String(), nil)
	r.Header.Set(TraceHeader, hdr.String())
	if got, _ := ContextFromRequest(r); got != hdr {
		t.Fatalf("header did not win: %+v", got)
	}

	r = httptest.NewRequest(http.MethodPost, "/ingest", nil)
	if _, ok := ContextFromRequest(r); ok {
		t.Fatal("bare request produced a context")
	}
}

func TestTraceRemoteSpanAdoptsContext(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4})
	parent := TraceContext{TraceID: 0xabc, SpanID: 0xdef}

	sp := tr.StartRemote("ingest", parent)
	if sp.Context().TraceID != parent.TraceID {
		t.Fatalf("remote span trace = %x, want %x", sp.Context().TraceID, parent.TraceID)
	}
	sp.End()

	// An invalid context degrades to a fresh root trace.
	fresh := tr.StartRemote("ingest", TraceContext{})
	if fresh.Context().TraceID == 0 {
		t.Fatal("fresh remote span has no trace id")
	}
	fresh.End()

	// Snapshot is most-recent-first: the fresh root leads, the adopted
	// remote span follows.
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(snap))
	}
	if snap[1].TraceID != fmt.Sprintf("%016x", parent.TraceID) {
		t.Fatalf("adopted trace_id = %s", snap[1].TraceID)
	}
	if snap[1].ParentID != fmt.Sprintf("%016x", parent.SpanID) {
		t.Fatalf("adopted parent_id = %s", snap[1].ParentID)
	}
	if snap[0].ParentID != "" {
		t.Fatalf("fresh root has parent_id %s", snap[0].ParentID)
	}
}

func TestTraceDroppedFiresOnUnreadEviction(t *testing.T) {
	drops := 0
	tr := NewTracer(TracerConfig{Capacity: 2, OnDrop: func() { drops++ }})
	end := func(name string) {
		sp := tr.Start(name)
		sp.End()
	}

	end("a")
	end("b")
	if drops != 0 {
		t.Fatalf("drops = %d before the ring wrapped", drops)
	}
	end("c") // overwrites unread "a"
	if drops != 1 {
		t.Fatalf("drops = %d after unread eviction, want 1", drops)
	}

	tr.Snapshot() // marks everything read
	end("d")
	end("e") // both overwrite read entries
	if drops != 1 {
		t.Fatalf("drops = %d after overwriting read entries, want still 1", drops)
	}

	// Dropped spans never land in the ring and never count.
	sp := tr.Start("heartbeat")
	sp.Drop()
	sp.End()
	if got := len(tr.Snapshot()); got != 2 {
		t.Fatalf("ring holds %d traces after drop, want 2", got)
	}
}

func TestTraceStitchReattachesForest(t *testing.T) {
	t0 := time.Unix(100, 0)
	forest := []SpanJSON{
		{Name: "proxy", TraceID: "t1", SpanID: "aa", Start: t0, Children: []SpanJSON{
			{Name: "forward", TraceID: "t1", SpanID: "bb", ParentID: "aa", Start: t0.Add(time.Millisecond)},
		}},
		// A peer's root parented under the forward span above.
		{Name: "ingest", TraceID: "t1", SpanID: "cc", ParentID: "bb", Node: "n2", Start: t0.Add(2 * time.Millisecond)},
		// Unknown parent: stays a root.
		{Name: "orphan", TraceID: "t9", SpanID: "dd", ParentID: "zz", Start: t0},
	}
	out := StitchTraces(forest)
	if len(out) != 2 {
		t.Fatalf("stitched into %d trees, want 2", len(out))
	}
	if out[0].Name != "proxy" || out[1].Name != "orphan" {
		t.Fatalf("root order = %s, %s", out[0].Name, out[1].Name)
	}
	fwd := out[0].Children[0]
	if len(fwd.Children) != 1 || fwd.Children[0].Name != "ingest" || fwd.Children[0].Node != "n2" {
		t.Fatalf("peer root not reattached under forward: %+v", fwd)
	}

	// A cycle among roots must not loop or vanish: two roots each naming
	// the other's span as parent.
	cyc := StitchTraces([]SpanJSON{
		{Name: "x", SpanID: "x1", ParentID: "y1"},
		{Name: "y", SpanID: "y1", ParentID: "x1"},
	})
	total := 0
	var count func(s *SpanJSON)
	count = func(s *SpanJSON) {
		total++
		for i := range s.Children {
			count(&s.Children[i])
		}
	}
	for i := range cyc {
		count(&cyc[i])
	}
	if total != 2 {
		t.Fatalf("cycle stitching lost or duplicated spans: %d total", total)
	}
}

func TestTraceQueryFilters(t *testing.T) {
	traces := []SpanJSON{
		{Name: "proxy", TraceID: "0000000000000001", DurationSec: 0.5, Children: []SpanJSON{{Name: "forward"}}},
		{Name: "ingest", TraceID: "0000000000000002", DurationSec: 0.001},
	}
	if got := FilterTraces(traces, TraceQuery{}); len(got) != 2 {
		t.Fatalf("zero query filtered to %d", len(got))
	}
	if got := FilterTraces(traces, TraceQuery{TraceID: "0000000000000002"}); len(got) != 1 || got[0].Name != "ingest" {
		t.Fatalf("trace filter = %+v", got)
	}
	// Stage matches anywhere in the tree, not only the root.
	if got := FilterTraces(traces, TraceQuery{Stage: "forward"}); len(got) != 1 || got[0].Name != "proxy" {
		t.Fatalf("stage filter = %+v", got)
	}
	if got := FilterTraces(traces, TraceQuery{MinDur: 100 * time.Millisecond}); len(got) != 1 || got[0].Name != "proxy" {
		t.Fatalf("min duration filter = %+v", got)
	}

	r := httptest.NewRequest(http.MethodGet, "/debug/traces?trace=ab&stage=ingest&min_ms=2.5", nil)
	q, err := QueryFromRequest(r)
	if err != nil || q.TraceID != "ab" || q.Stage != "ingest" || q.MinDur != 2500*time.Microsecond {
		t.Fatalf("parsed query = %+v err=%v", q, err)
	}
	r = httptest.NewRequest(http.MethodGet, "/debug/traces?min_ms=banana", nil)
	if _, err := QueryFromRequest(r); err == nil {
		t.Fatal("bad min_ms accepted")
	}
}

func TestRuntimeGaugesRefreshOnScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	RegisterRuntime(reg)
	var sb strings.Builder
	reg.WriteText(&sb)
	text := sb.String()
	for _, name := range []string{
		"ddosd_go_goroutines", "ddosd_go_gomaxprocs", "ddosd_go_heap_alloc_bytes",
		"ddosd_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, name+" ") {
			t.Errorf("exposition missing %s", name)
		}
	}
	if strings.Contains(text, "ddosd_go_goroutines 0\n") {
		t.Fatal("goroutine gauge not refreshed at scrape time")
	}

	snap := ReadRuntime()
	if snap.Goroutines < 1 || snap.GOMAXPROCS < 1 || snap.HeapAlloc == 0 {
		t.Fatalf("implausible runtime snapshot: %+v", snap)
	}
}

func TestWatchdogCapturesAndServesBundle(t *testing.T) {
	dir := t.TempDir()
	breach := 2.0
	wd, err := NewWatchdog(WatchdogConfig{
		Dir:        dir,
		Cooldown:   time.Hour,
		CPUProfile: -1, // skip: keep the test fast
		Rules: []WatchdogRule{
			{Name: "ingest_p99_seconds", Threshold: 1, Value: func() float64 { return breach }},
			{Name: "quiet_rule", Threshold: 100, Value: func() float64 { return 0 }},
		},
		Snapshots: map[string]func() ([]byte, error){
			"spans.json": func() ([]byte, error) { return []byte(`{"traces":[]}`), nil },
			"log.txt":    func() ([]byte, error) { return nil, fmt.Errorf("ring unavailable") },
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	name, err := wd.Check()
	if err != nil || name == "" {
		t.Fatalf("Check = %q, %v", name, err)
	}
	for _, f := range []string{"meta.json", "heap.pprof", "spans.json"} {
		if _, err := os.Stat(filepath.Join(dir, name, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	var meta struct {
		Breaches []Breach          `json:"breaches"`
		Rules    []Breach          `json:"rules"`
		Errors   map[string]string `json:"capture_errors"`
		Build    BuildProvenance   `json:"build"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, name, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Breaches) != 1 || meta.Breaches[0].Rule != "ingest_p99_seconds" || meta.Breaches[0].Value != breach {
		t.Fatalf("meta breaches = %+v", meta.Breaches)
	}
	if len(meta.Rules) != 2 {
		t.Fatalf("meta rules = %+v (want every rule's value, breached or not)", meta.Rules)
	}
	if meta.Errors["log.txt"] == "" {
		t.Fatalf("failed snapshot producer not recorded: %+v", meta.Errors)
	}
	if meta.Build.GoVersion == "" {
		t.Fatal("bundle meta missing build provenance")
	}

	// Cooldown: a persistent breach produces one bundle per cooldown.
	if again, err := wd.Check(); err != nil || again != "" {
		t.Fatalf("cooldown did not hold: %q, %v", again, err)
	}

	h := wd.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/bundle", nil))
	var list struct {
		Captures uint64 `json:"captures"`
		Rules    []Breach
		Bundles  []BundleInfo `json:"bundles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Captures != 1 || len(list.Bundles) != 1 || list.Bundles[0].Name != name {
		t.Fatalf("bundle listing = %+v", list)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/bundle?name="+name+"&file=meta.json", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ingest_p99_seconds") {
		t.Fatalf("bundle file fetch: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	// Path traversal is rejected, inside and outside the bundle name.
	for _, uri := range []string{
		"/debug/bundle?name=" + name + "&file=../../etc/passwd",
		"/debug/bundle?name=..&file=meta.json",
		"/debug/bundle?name=" + name + "&file=a%2Fb",
	} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, uri, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s answered HTTP %d, want 400", uri, rec.Code)
		}
	}

	// No breach, no capture.
	breach = 0
	if name, err := wd.Check(); err != nil || name != "" {
		t.Fatalf("healthy rules captured %q, %v", name, err)
	}
}

func TestWatchdogPruneKeepsNewestBundles(t *testing.T) {
	dir := t.TempDir()
	wd, err := NewWatchdog(WatchdogConfig{
		Dir:        dir,
		Cooldown:   time.Nanosecond,
		MaxBundles: 2,
		CPUProfile: -1,
		Rules:      []WatchdogRule{{Name: "r", Threshold: 0, Value: func() float64 { return 1 }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 3; i++ {
		n, err := wd.Check()
		if err != nil || n == "" {
			t.Fatalf("capture %d: %q, %v", i, n, err)
		}
		names = append(names, n)
		time.Sleep(2 * time.Millisecond) // distinct capture ordering
	}
	kept := wd.Bundles()
	if len(kept) != 2 {
		t.Fatalf("ring holds %d bundles, want 2: %+v", len(kept), kept)
	}
	if kept[0].Name != names[1] || kept[1].Name != names[2] {
		t.Fatalf("ring kept %v, want newest two of %v", kept, names)
	}
	if wd.Captures() != 3 {
		t.Fatalf("capture counter = %d, want 3", wd.Captures())
	}
}

// TestWatchdogSweepsUncommittedBundles pins the bundle commit point: a
// capture that crashed before its rename leaves a ".tmp-" directory, which
// the next NewWatchdog removes while committed bundles stay listed.
func TestWatchdogSweepsUncommittedBundles(t *testing.T) {
	dir := t.TempDir()
	committed := "bundle-20260101T000000.000-000001-r"
	torn := tmpBundlePrefix + "bundle-20260101T000001.000-000002-r"
	for _, d := range []string{committed, torn} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, committed, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, torn, "spans.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := NewWatchdog(WatchdogConfig{
		Dir:        dir,
		CPUProfile: -1,
		Rules:      []WatchdogRule{{Name: "r", Threshold: 0, Value: func() float64 { return 1 }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, torn)); !os.IsNotExist(err) {
		t.Fatalf("uncommitted bundle survived NewWatchdog: %v", err)
	}
	if b := wd.Bundles(); len(b) != 1 || b[0].Name != committed {
		t.Fatalf("bundles after sweep = %+v, want only %s", b, committed)
	}

	// A fresh capture leaves no temp directory behind and lists whole.
	name, err := wd.Check()
	if err != nil || name == "" {
		t.Fatalf("Check = %q, %v", name, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpBundlePrefix) {
			t.Fatalf("capture left %s behind", e.Name())
		}
	}
	for _, b := range wd.Bundles() {
		if !slices.Contains(b.Files, "meta.json") {
			t.Fatalf("listed bundle %s has no meta.json: %v", b.Name, b.Files)
		}
	}
}

func TestWatchdogLoopCapturesAndCloses(t *testing.T) {
	captured := make(chan string, 4)
	wd, err := NewWatchdog(WatchdogConfig{
		Dir:        t.TempDir(),
		Interval:   5 * time.Millisecond,
		Cooldown:   time.Hour,
		CPUProfile: -1,
		Rules:      []WatchdogRule{{Name: "r", Threshold: 0, Value: func() float64 { return 1 }}},
		OnCapture: func(bundle string, breaches []Breach) {
			select {
			case captured <- bundle:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	select {
	case b := <-captured:
		if b == "" {
			t.Fatal("empty bundle name from the loop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog loop never captured")
	}
	wd.Close()
	wd.Close() // idempotent
}

func TestWatchdogLogRingTailsLines(t *testing.T) {
	var inner strings.Builder
	ring := NewLogRing(&inner, 3)
	logger, err := NewLogger(ring, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		logger.Info("event", "i", i)
	}
	lines := ring.Lines()
	if len(lines) != 3 {
		t.Fatalf("ring holds %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"i":2`) || !strings.Contains(lines[2], `"i":4`) {
		t.Fatalf("ring kept wrong tail: %q", lines)
	}
	// The tee still forwards everything to the real sink.
	if got := strings.Count(inner.String(), "\n"); got != 5 {
		t.Fatalf("inner writer saw %d lines, want 5", got)
	}
}
