package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/trace"
)

func testServeConfig() serve.Config {
	return serve.Config{
		Shards:      4,
		Window:      64,
		MinWindow:   6,
		MinSTWindow: 1 << 20,
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

func TestGeneratorDeterministicAndValid(t *testing.T) {
	mk := func() *Generator {
		return NewGenerator(GenConfig{Targets: 8, Seed: 11, TimeCompress: 24})
	}
	a, b := mk(), mk()
	seen := make(map[int]bool)
	perTargetLast := make(map[int]time.Time)
	for i := 0; i < 2000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.ID != rb.ID || !ra.Start.Equal(rb.Start) || ra.TargetAS != rb.TargetAS {
			t.Fatalf("record %d differs across equal seeds", i)
		}
		if err := serve.ValidateRecord(ra); err != nil {
			t.Fatalf("generated record %d invalid: %v", i, err)
		}
		if seen[ra.ID] {
			t.Fatalf("duplicate generated ID %d", ra.ID)
		}
		seen[ra.ID] = true
		tgt := int(ra.TargetAS)
		if last, ok := perTargetLast[tgt]; ok && ra.Start.Before(last) {
			t.Fatalf("target %d stream not chronological: %v after %v", tgt, ra.Start, last)
		}
		perTargetLast[tgt] = ra.Start
		if len(ra.Bots) < 1 || len(ra.Bots) > 8 {
			t.Fatalf("record %d has %d bots, want 1..8", i, len(ra.Bots))
		}
	}
	if len(a.Targets()) != 8 {
		t.Fatalf("fan-out %d, want 8", len(a.Targets()))
	}
}

func TestClosedLoopAgainstService(t *testing.T) {
	svc := serve.New(testServeConfig())
	defer svc.Close()
	gen := NewGenerator(GenConfig{Targets: 4, Seed: 3, TimeCompress: 24})
	rep, err := Run(Config{Mode: ClosedLoop, Records: 3000, Workers: 4}, gen.Next, ServiceSink{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 3000 {
		t.Fatalf("sent %d, want 3000", rep.Sent)
	}
	if rep.Accepted+rep.Dups+rep.Shed+rep.Errors != rep.Sent {
		t.Fatalf("outcome counters %d+%d+%d+%d don't add to sent %d",
			rep.Accepted, rep.Dups, rep.Shed, rep.Errors, rep.Sent)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d sink errors", rep.Errors)
	}
	if rep.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if rep.Max <= 0 || rep.Quantile(0.99) <= 0 {
		t.Fatalf("latency stats empty: max %v p99 %v", rep.Max, rep.Quantile(0.99))
	}
	svc.Flush()
	// The fan-out targets got enough records each to be served.
	served := 0
	for _, as := range gen.Targets() {
		if _, err := svc.Forecast(as); err == nil {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no target served after 3000 accepted records")
	}
}

func TestOpenLoopRampAndChaosCompose(t *testing.T) {
	svc := serve.New(testServeConfig())
	defer svc.Close()
	gen := NewGenerator(GenConfig{Targets: 4, Seed: 5, TimeCompress: 24})
	faults := &chaos.StreamFaults{Seed: 9, DropProb: 0.1, DupProb: 0.1, ReorderProb: 0.1}
	src := faults.Stream(gen.Next)

	rep, err := Run(Config{
		Mode: OpenLoop, Records: 600, Workers: 4,
		Rate: 3000, RateEnd: 9000,
	}, src, ServiceSink{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	// Drops shrink the stream below Records only if the source runs dry —
	// it never does (infinite generator), so everything scheduled went out.
	if rep.Sent != 600 {
		t.Fatalf("sent %d, want 600", rep.Sent)
	}
	if faults.Dropped() == 0 || faults.Duplicated() == 0 {
		t.Fatalf("chaos did not fire: dropped %d dup %d", faults.Dropped(), faults.Duplicated())
	}
	if rep.Dups == 0 {
		t.Fatal("duplicated records were not deduplicated by the service")
	}
	// Open loop at 3k..9k rec/s of 600 records should finish in well under
	// a second of scheduled time plus slack.
	if rep.Elapsed > 5*time.Second {
		t.Fatalf("open loop took %v", rep.Elapsed)
	}
}

func TestHTTPSinkClassifiesOutcomes(t *testing.T) {
	svc := serve.New(testServeConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sink := NewHTTPSink(srv.URL)
	gen := NewGenerator(GenConfig{Targets: 2, Seed: 1, TimeCompress: 24})
	a := gen.Next()
	res, err := sink.IngestBatch([]*trace.Attack{a})
	if err != nil || res != (Result{Accepted: 1}) {
		t.Fatalf("first ingest: %+v, %v", res, err)
	}
	res, err = sink.IngestBatch([]*trace.Attack{a})
	if err != nil || res != (Result{Duplicates: 1}) {
		t.Fatalf("repeat ingest: %+v, %v", res, err)
	}
	bad := *gen.Next()
	bad.Family = ""
	if _, err := sink.IngestBatch([]*trace.Attack{&bad}); err == nil {
		t.Fatal("invalid record did not error through the HTTP sink")
	}
}

// TestHTTPSinkReusesConnections pins the keep-alive behavior behind the
// response-body drain: under concurrent workers against a live server,
// requests after the first wave must ride pooled connections
// (httptrace GotConn.Reused), not fresh TCP handshakes.
func TestHTTPSinkReusesConnections(t *testing.T) {
	svc := serve.New(testServeConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sink := NewHTTPSink(srv.URL)
	var reused, total atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			total.Add(1)
			if info.Reused {
				reused.Add(1)
			}
		},
	})
	gen := NewGenerator(GenConfig{Targets: 2, Seed: 8, TimeCompress: 24})

	// Serial one-record requests: after the first, every request must
	// reuse.
	for i := 0; i < 20; i++ {
		a := gen.Next()
		body, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := sink.Client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := reused.Load(); got < 19 {
		t.Fatalf("connection reused on %d/20 requests; the sink is defeating keep-alive", got)
	}

	// The sink's own calls must leave the connection reusable too: drive
	// them, then confirm a traced request still reuses.
	for i := 0; i < 5; i++ {
		if _, err := sink.IngestBatch([]*trace.Attack{gen.Next()}); err != nil {
			t.Fatal(err)
		}
	}
	before := reused.Load()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/ingest", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sink.Client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if reused.Load() != before+1 {
		t.Fatal("request after sink.IngestBatch did not reuse the pooled connection")
	}
}

// TestHTTPSinkBatchWires drives both batch encodings through IngestBatch
// against a live handler and requires identical classification.
func TestHTTPSinkBatchWires(t *testing.T) {
	for _, wire := range []string{"json", "binary"} {
		t.Run(wire, func(t *testing.T) {
			svc := serve.New(testServeConfig())
			defer svc.Close()
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()

			sink := NewHTTPSink(srv.URL)
			sink.Wire = wire
			gen := NewGenerator(GenConfig{Targets: 2, Seed: 4, TimeCompress: 24})
			batch := make([]*trace.Attack, 16)
			for i := range batch {
				batch[i] = gen.Next()
			}
			br, err := sink.IngestBatch(batch)
			if err != nil || br.Accepted != 16 || br.Duplicates != 0 {
				t.Fatalf("first batch: %+v, %v", br, err)
			}
			br, err = sink.IngestBatch(batch)
			if err != nil || br.Accepted != 0 || br.Duplicates != 16 {
				t.Fatalf("replayed batch: %+v, %v", br, err)
			}
		})
	}
}

// TestHTTPSinkResendsBodyOn307 pins the redirect round trip a cluster
// node in redirect routing relies on: the first node answers /ingest
// with 307 to the owner, and the sink's client must replay the full
// request body to the redirect target (Go only does this when
// Request.GetBody is set — a sink built on a plain one-shot reader
// follows the redirect with an empty body and silently loses records).
func TestHTTPSinkResendsBodyOn307(t *testing.T) {
	svc := serve.New(testServeConfig())
	defer svc.Close()
	owner := httptest.NewServer(svc.Handler())
	defer owner.Close()

	var redirects atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		redirects.Add(1)
		http.Redirect(w, r, owner.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer front.Close()

	gen := NewGenerator(GenConfig{Targets: 2, Seed: 3, TimeCompress: 24})

	// A one-record call, then a batch, on each wire.
	sink := NewHTTPSink(front.URL)
	for _, wire := range []string{"json", "binary"} {
		sink.Wire = wire
		for _, n := range []int{1, 8} {
			batch := make([]*trace.Attack, n)
			for i := range batch {
				batch[i] = gen.Next()
			}
			br, err := sink.IngestBatch(batch)
			if err != nil || br.Accepted != n {
				t.Fatalf("redirected %s batch of %d: %+v, %v", wire, n, br, err)
			}
		}
	}
	if redirects.Load() != 4 {
		t.Fatalf("front server saw %d requests, want 4", redirects.Load())
	}
}

// TestMultiSinkSpraysAcrossSinks checks the round-robin fan-out the
// cluster load driver uses for -addrs.
func TestMultiSinkSpraysAcrossSinks(t *testing.T) {
	var hits [2]atomic.Int64
	var srvs [2]*httptest.Server
	for i := range srvs {
		i := i
		svc := serve.New(testServeConfig())
		defer svc.Close()
		inner := svc.Handler()
		srvs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			inner.ServeHTTP(w, r)
		}))
		defer srvs[i].Close()
	}
	m := NewMultiHTTPSink([]string{srvs[0].URL, srvs[1].URL}, "binary")
	gen := NewGenerator(GenConfig{Targets: 2, Seed: 5, TimeCompress: 24})
	for i := 0; i < 6; i++ {
		batch := []*trace.Attack{gen.Next(), gen.Next()}
		if br, err := m.IngestBatch(batch); err != nil || br.Accepted != 2 {
			t.Fatalf("batch %d: %+v, %v", i, br, err)
		}
	}
	if hits[0].Load() != 3 || hits[1].Load() != 3 {
		t.Fatalf("round robin skewed: %d vs %d hits", hits[0].Load(), hits[1].Load())
	}
}

// TestSinksLeaveIdenticalStores: a record is a batch of one on every
// client path. One generated stream, with chaos duplicates and reorders,
// must leave byte-identical store checkpoints whether it reaches the
// service in-process one or sixteen records per call, or over HTTP one
// record per request on either wire.
func TestSinksLeaveIdenticalStores(t *testing.T) {
	const records = 600
	run := func(batch int, wire string) []byte {
		svc := serve.New(testServeConfig())
		defer svc.Close()
		var sink Sink = ServiceSink{Svc: svc}
		if wire != "" {
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			hs := NewHTTPSink(srv.URL)
			hs.Wire = wire
			sink = hs
		}
		gen := NewGenerator(GenConfig{Targets: 4, Seed: 12, TimeCompress: 24})
		faults := &chaos.StreamFaults{Seed: 12, DupProb: 0.1, ReorderProb: 0.1}
		// One worker keeps the arrival order the stream's.
		rep, err := Run(Config{Mode: ClosedLoop, Records: records, Workers: 1, Batch: batch},
			faults.Stream(gen.Next), sink)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.Shed != 0 || rep.Dups == 0 || rep.Accepted+rep.Dups != records {
			t.Fatalf("batch %d wire %q: sent %d, accepted %d, dups %d, shed %d, errors %d",
				batch, wire, rep.Sent, rep.Accepted, rep.Dups, rep.Shed, rep.Errors)
		}
		if faults.Reordered() == 0 {
			t.Fatal("chaos reordered nothing")
		}
		cp := svc.Store().Checkpoint()
		for i := range cp {
			cp[i].SinceRefit = 0 // refit timing, not ingest state
		}
		img, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := run(1, "")
	for _, c := range []struct {
		batch int
		wire  string
	}{{16, ""}, {1, "json"}, {1, "binary"}} {
		if got := run(c.batch, c.wire); !bytes.Equal(got, want) {
			t.Fatalf("batch %d wire %q: store diverges from one-record in-process calls:\n got %s\nwant %s",
				c.batch, c.wire, got, want)
		}
	}
}

// TestBatchedDriverAgainstService runs the full driver in batch mode on
// the in-process vectorized path, both pacing disciplines.
func TestBatchedDriverAgainstService(t *testing.T) {
	for _, mode := range []Mode{ClosedLoop, OpenLoop} {
		t.Run(mode.String(), func(t *testing.T) {
			svc := serve.New(testServeConfig())
			defer svc.Close()
			gen := NewGenerator(GenConfig{Targets: 4, Seed: 6, TimeCompress: 24})
			cfg := Config{Mode: mode, Records: 1000, Workers: 4, Batch: 32}
			if mode == OpenLoop {
				cfg.Rate = 50000
			}
			rep, err := Run(cfg, gen.Next, ServiceSink{Svc: svc})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sent != 1000 {
				t.Fatalf("sent %d, want 1000", rep.Sent)
			}
			if rep.Accepted+rep.Dups+rep.Shed+rep.Errors != rep.Sent {
				t.Fatalf("outcome counters %d+%d+%d+%d don't add to sent %d",
					rep.Accepted, rep.Dups, rep.Shed, rep.Errors, rep.Sent)
			}
			if rep.Errors != 0 {
				t.Fatalf("%d sink errors", rep.Errors)
			}
			if rep.Accepted == 0 {
				t.Fatal("nothing accepted")
			}
		})
	}
}

func TestReportSLOChecks(t *testing.T) {
	rep, err := Run(Config{Mode: ClosedLoop, Records: 100, Workers: 2},
		NewGenerator(GenConfig{Targets: 2, Seed: 2}).Next, nullSink{})
	if err != nil {
		t.Fatal(err)
	}
	if errs := rep.Check(SLO{MaxShedRate: Unchecked, MaxErrorRate: Unchecked}); len(errs) != 0 {
		t.Fatalf("empty SLO violated: %v", errs)
	}
	if errs := rep.Check(SLO{P99: time.Nanosecond, MaxShedRate: Unchecked, MaxErrorRate: Unchecked}); len(errs) == 0 {
		t.Fatal("1ns p99 SLO not violated")
	}
	if errs := rep.Check(SLO{MinThroughput: 1e12, MaxShedRate: Unchecked, MaxErrorRate: Unchecked}); len(errs) == 0 {
		t.Fatal("absurd throughput floor not violated")
	}
	out := rep.String()
	for _, want := range []string{"p50", "p95", "p99", "max", "shed", "sent"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestReportMarshalJSON(t *testing.T) {
	rep, err := Run(Config{Mode: ClosedLoop, Records: 100, Workers: 2},
		NewGenerator(GenConfig{Targets: 2, Seed: 2}).Next, nullSink{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("report JSON does not round-trip: %v\n%s", err, raw)
	}
	// CI artifacts key on these names; renaming them breaks dashboards.
	for _, key := range []string{
		"mode", "elapsed_sec", "sent", "accepted", "duplicates",
		"shed", "errors", "throughput_rps", "shed_rate", "latency_sec",
	} {
		if _, ok := got[key]; !ok {
			t.Fatalf("report JSON missing %q:\n%s", key, raw)
		}
	}
	if got["sent"].(float64) != 100 {
		t.Fatalf("sent = %v, want 100", got["sent"])
	}
	lat, ok := got["latency_sec"].(map[string]any)
	if !ok {
		t.Fatalf("latency_sec is %T", got["latency_sec"])
	}
	for _, q := range []string{"p50", "p95", "p99", "max"} {
		if _, ok := lat[q]; !ok {
			t.Fatalf("latency_sec missing %q:\n%s", q, raw)
		}
	}
}

// nullSink accepts everything instantly.
type nullSink struct{}

func (nullSink) IngestBatch(recs []*trace.Attack) (Result, error) {
	return Result{Accepted: len(recs)}, nil
}

// TestReportExactQuantiles pins nearest-rank quantiles over the recorded
// latencies: with 1..100 ms, p50 is 50 ms and p99 is 99 ms, never above
// the maximum.
func TestReportExactQuantiles(t *testing.T) {
	ns := make([]float64, 100)
	for i := range ns {
		ns[len(ns)-1-i] = float64(time.Duration(i+1) * time.Millisecond)
	}
	var rep Report
	rep.setLatencies(ns)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}} {
		if got := rep.Quantile(c.q); got != c.want {
			t.Errorf("q%g = %v, want %v", c.q, got, c.want)
		}
	}
	if rep.Max != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", rep.Max)
	}
	if (&Report{}).Quantile(0.99) != 0 {
		t.Error("quantile without records is not zero")
	}

	run, err := Run(Config{Mode: ClosedLoop, Records: 200, Workers: 3},
		NewGenerator(GenConfig{Targets: 2, Seed: 2}).Next, nullSink{})
	if err != nil {
		t.Fatal(err)
	}
	if run.lat.Len() != 200 {
		t.Fatalf("%d latencies recorded for 200 records", run.lat.Len())
	}
	if p99 := run.Quantile(0.99); p99 > run.Max {
		t.Fatalf("p99 %v above max %v", p99, run.Max)
	}
}
