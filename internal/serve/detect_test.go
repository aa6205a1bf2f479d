package serve

// In-package tests for the streaming detection tier's serve integration:
// the /alerts endpoint, and the hot-path allocation/throughput contracts
// with the detector enabled. The ground-truth precision/recall/latency
// validation lives in detect_truth_test.go (package serve_test — it
// drives internal/loadgen, which imports serve).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/detect"
	"repro/internal/trace"
)

// TestAlertsEndpoint covers /alerts over HTTP: the disabled body, the
// enabled report with live stats and alerts, the limit parameter, and
// method/parameter validation.
func TestAlertsEndpoint(t *testing.T) {
	getJSON := func(t *testing.T, url string, out any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, out); err != nil {
				t.Fatalf("bad /alerts body %q: %v", body, err)
			}
		}
		return resp.StatusCode
	}

	t.Run("disabled", func(t *testing.T) {
		svc := New(testConfig())
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		var rep AlertsReport
		if code := getJSON(t, srv.URL+"/alerts", &rep); code != http.StatusOK {
			t.Fatalf("GET /alerts = %d", code)
		}
		if rep.Enabled || rep.Stats != nil || rep.Alerts != nil {
			t.Fatalf("detector off, got %+v", rep)
		}
	})

	t.Run("enabled", func(t *testing.T) {
		cfg := testConfig()
		cfg.MinWindow = 1 << 20
		cfg.Detect = &detect.Config{}
		svc := New(cfg)
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()

		// A one-second 30-record storm on one target must raise.
		t0 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 30; i++ {
			a := &trace.Attack{
				ID: i + 1, Family: "DirtJumper", TargetAS: 64512,
				TargetIP: 1, Start: t0.Add(time.Duration(i) * 30 * time.Millisecond),
				DurationSec: 60, Bots: []astopo.IPv4{1, 2, 3},
			}
			if ok, err := ingestOne(svc, a); err != nil || !ok {
				t.Fatalf("ingest %d: accepted=%v err=%v", i, ok, err)
			}
		}

		var rep AlertsReport
		if code := getJSON(t, srv.URL+"/alerts", &rep); code != http.StatusOK {
			t.Fatalf("GET /alerts = %d", code)
		}
		if !rep.Enabled || rep.Stats == nil {
			t.Fatalf("expected enabled report, got %+v", rep)
		}
		if rep.Stats.Raised == 0 || len(rep.Alerts) == 0 {
			t.Fatalf("storm raised nothing: %+v", rep)
		}
		for _, a := range rep.Alerts {
			if a.Kind != detect.KindRate && a.Kind != detect.KindEntropy {
				t.Fatalf("alert with unknown kind %q", a.Kind)
			}
			if a.Target != 64512 {
				t.Fatalf("alert for unexpected target %v", a.Target)
			}
		}

		var one AlertsReport
		if code := getJSON(t, srv.URL+"/alerts?limit=1", &one); code != http.StatusOK {
			t.Fatalf("GET /alerts?limit=1 = %d", code)
		}
		if len(one.Alerts) != 1 {
			t.Fatalf("limit=1 returned %d alerts", len(one.Alerts))
		}
		if one.Alerts[0] != rep.Alerts[0] {
			t.Fatalf("limit=1 alert %+v != most recent %+v", one.Alerts[0], rep.Alerts[0])
		}

		if code := getJSON(t, srv.URL+"/alerts?limit=bogus", nil); code != http.StatusBadRequest {
			t.Fatalf("bad limit accepted: %d", code)
		}
		resp, err := http.Post(srv.URL+"/alerts", "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /alerts = %d, want 405", resp.StatusCode)
		}
	})
}

// TestIngestBatchDetectZeroAlloc re-pins the vectorized ingest pooling
// contract with the detector enabled: detection must not cost the hot
// path its amortized-zero allocation budget.
func TestIngestBatchDetectZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	svc, bodies, dec := newZeroAllocHarness(t, 256, func(c *Config) {
		c.Detect = &detect.Config{}
	})
	var r bytes.Reader
	round := 0
	warm := func(n int) {
		for i := 0; i < n; i++ {
			r.Reset(bodies[round%len(bodies)])
			round++
			dec.Reset(&r)
			if err := dec.Decode(0); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.IngestBatch(dec.Records(), dec.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(64)
	const perRound = 64
	avg := testing.AllocsPerRun(100, func() { warm(1) })
	if perRecord := avg / perRound; perRecord > 0.25 {
		t.Fatalf("detect-enabled decode+apply allocates %.3f/record (%.1f/batch), want amortized ~0", perRecord, avg)
	}
}

// BenchmarkIngestBatchBinaryDetect is BenchmarkIngestBatchBinary with the
// streaming detector enabled — the marginal detection cost on the binary
// hot path. The acceptance bar is rec/s within 10% of the baseline
// benchmark at 0 amortized allocs/record.
func BenchmarkIngestBatchBinaryDetect(b *testing.B) {
	svc, bodies, dec := newZeroAllocHarness(b, 512, func(c *Config) {
		c.Detect = &detect.Config{}
	})
	var r bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(bodies[i%len(bodies)])
		dec.Reset(&r)
		if err := dec.Decode(0); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.IngestBatch(dec.Records(), dec.Payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recs := float64(b.N * 64)
	b.ReportMetric(recs/b.Elapsed().Seconds(), "rec/s")
}
