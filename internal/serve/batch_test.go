package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/astopo"
	"repro/internal/trace"
	"repro/internal/wal"
)

// encodeBinaryBatch frames attacks as an application/x-ddos-batch body.
func encodeBinaryBatch(t testing.TB, attacks []trace.Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := trace.NewBatchEncoder(&buf)
	for i := range attacks {
		if err := enc.Encode(&attacks[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func postBinary(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/ingest", trace.BatchContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestIngestBinaryBatchHTTP(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	attacks := mkAttacks(64512, 0, 10)
	resp := postBinary(t, srv.URL, encodeBinaryBatch(t, attacks))
	res := decodeBody[IngestResult](t, resp)
	if resp.StatusCode != http.StatusOK || res.Ingested != 10 || res.Duplicates != 0 {
		t.Fatalf("binary batch: status %d, result %+v", resp.StatusCode, res)
	}

	// Resending the same batch dedups every record.
	resp = postBinary(t, srv.URL, encodeBinaryBatch(t, attacks))
	res = decodeBody[IngestResult](t, resp)
	if resp.StatusCode != http.StatusOK || res.Ingested != 0 || res.Duplicates != 10 {
		t.Fatalf("replayed batch: status %d, result %+v", resp.StatusCode, res)
	}

	window, total := svc.Store().Window(64512)
	if total != 10 || len(window) != 10 {
		t.Fatalf("store window %d total %d, want 10/10", len(window), total)
	}

	// An empty batch (bare magic, or empty body) is zero records, HTTP 200.
	resp = postBinary(t, srv.URL, nil)
	res = decodeBody[IngestResult](t, resp)
	if resp.StatusCode != http.StatusOK || res.Ingested != 0 {
		t.Fatalf("empty batch: status %d, result %+v", resp.StatusCode, res)
	}
}

func TestIngestBinaryBatchRejectsCorruptFrames(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := encodeBinaryBatch(t, mkAttacks(64512, 0, 4))
	mut := bytes.Clone(body)
	mut[len(mut)-1] ^= 0x01 // corrupt the last record's payload

	resp := postBinary(t, srv.URL, mut)
	res := decodeBody[IngestResult](t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt batch status %d, want 400", resp.StatusCode)
	}
	// Decode-all-then-apply: a corrupt frame aborts the batch before
	// anything reaches the store, and the error names the frame.
	if res.Ingested != 0 || res.Duplicates != 0 || res.Rejected != 0 {
		t.Fatalf("corrupt batch committed records: %+v", res)
	}
	if !strings.Contains(res.Error, "record 4") {
		t.Fatalf("error %q does not name record 4", res.Error)
	}
	if n := svc.Store().Len(); n != 0 {
		t.Fatalf("store holds %d targets after an aborted batch", n)
	}

	// A JSON body mislabeled with the batch content type is a 400.
	resp = postBinary(t, srv.URL, []byte(`[{"id":1}]`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mislabeled body status %d, want 400", resp.StatusCode)
	}
}

func TestIngestBinaryBatchRecordCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatchRecords = 4
	svc := New(cfg)
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := postBinary(t, srv.URL, encodeBinaryBatch(t, mkAttacks(64512, 0, 5)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary batch status %d, want 413", resp.StatusCode)
	}
	if n := svc.Store().Len(); n != 0 {
		t.Fatalf("store holds %d targets after a rejected batch", n)
	}
}

// TestIngestErrorIndexConvention pins one /ingest contract on both
// wires: every case runs over JSON and over the binary batch wire and
// must produce the same status and IngestResult counts. On a 400 the
// failing record is counted in Rejected and the error names its 1-based
// position, which equals Ingested+Duplicates+Rejected. The one
// documented difference is the binary-frame rule: an undecodable frame
// applies nothing (all counts zero) while the error still names it.
func TestIngestErrorIndexConvention(t *testing.T) {
	const capRecords = 4
	wires := []struct {
		name, contentType string
		encode            func(t testing.TB, attacks []trace.Attack) []byte
		// torn encodes attacks with the last record undecodable.
		torn func(t testing.TB, attacks []trace.Attack) []byte
	}{
		{"json", "application/json", encodeJSON, func(t testing.TB, attacks []trace.Attack) []byte {
			var body bytes.Buffer
			for i := range attacks[:len(attacks)-1] {
				writeNDJSON(t, &body, &attacks[i])
			}
			body.WriteString(`{nope`)
			return body.Bytes()
		}},
		{"binary", trace.BatchContentType, encodeBinaryBatch, func(t testing.TB, attacks []trace.Attack) []byte {
			body := encodeBinaryBatch(t, attacks)
			body[len(body)-1] ^= 0x01 // the last frame's checksum fails
			return body
		}},
	}
	duplicate := mkAttacks(64512, 0, 2)
	duplicate = append(duplicate, duplicate[0])
	invalid := mkAttacks(64512, 0, 3)
	invalid[1].TargetAS = 0
	cases := []struct {
		name    string
		attacks []trace.Attack
		torn    bool
		setup   func(t *testing.T, svc *Service)
		status  int
		want    IngestResult // counts; Error is checked separately
		failAt  int          // the record a 400 names
		// heal, when set, clears the fault; resending the body must then
		// answer 200 with retry.
		heal  func(svc *Service)
		retry IngestResult
	}{
		{name: "clean", attacks: mkAttacks(64512, 0, 3),
			status: http.StatusOK, want: IngestResult{Ingested: 3}},
		{name: "duplicate", attacks: duplicate,
			status: http.StatusOK, want: IngestResult{Ingested: 2, Duplicates: 1}},
		{name: "reject", attacks: invalid,
			status: http.StatusBadRequest, want: IngestResult{Ingested: 1, Rejected: 1}, failAt: 2},
		{name: "decode error", attacks: mkAttacks(64512, 0, 3), torn: true,
			status: http.StatusBadRequest, want: IngestResult{Ingested: 2, Rejected: 1}, failAt: 3},
		{name: "at cap", attacks: mkAttacks(64512, 0, capRecords),
			status: http.StatusOK, want: IngestResult{Ingested: capRecords}},
		{name: "over cap", attacks: mkAttacks(64512, 0, capRecords+1),
			status: http.StatusRequestEntityTooLarge},
		{name: "wal closed", attacks: mkAttacks(64512, 0, 2),
			setup: func(t *testing.T, svc *Service) {
				w := openWAL(t, t.TempDir(), 0)
				svc.AttachWAL(w, nil)
				w.Close() // every append now fails
			},
			status: http.StatusInternalServerError, want: IngestResult{Ingested: 2},
			heal: (*Service).DetachWAL, retry: IngestResult{Duplicates: 2}},
		{name: "shed", attacks: mkAttacks(64512, 0, 2),
			setup:  func(_ *testing.T, svc *Service) { svc.sched.lag.Store(int64(svc.cfg.LagWatermark) + 1) },
			status: http.StatusTooManyRequests,
			heal:   func(svc *Service) { svc.sched.lag.Store(0) }, retry: IngestResult{Ingested: 2}},
	}
	for _, w := range wires {
		for _, c := range cases {
			t.Run(w.name+" "+c.name, func(t *testing.T) {
				cfg := testConfig()
				cfg.MaxBatchRecords = capRecords
				svc := New(cfg)
				t.Cleanup(svc.Close)
				srv := httptest.NewServer(svc.Handler())
				t.Cleanup(srv.Close)
				if c.setup != nil {
					c.setup(t, svc)
				}
				body := w.encode(t, c.attacks)
				if c.torn {
					body = w.torn(t, c.attacks)
				}
				post := func() (int, http.Header, IngestResult) {
					resp, err := http.Post(srv.URL+"/ingest", w.contentType, bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					return resp.StatusCode, resp.Header, decodeBody[IngestResult](t, resp)
				}

				status, hdr, res := post()
				want := c.want
				frameRule := c.torn && w.name == "binary"
				if frameRule {
					want = IngestResult{} // an undecodable frame applies nothing
				}
				if status != c.status {
					t.Fatalf("status %d, want %d (%+v)", status, c.status, res)
				}
				if got := (IngestResult{Ingested: res.Ingested, Duplicates: res.Duplicates, Rejected: res.Rejected}); got != want {
					t.Fatalf("counts %+v, want %+v", res, want)
				}
				if (status == http.StatusOK) != (res.Error == "") {
					t.Fatalf("status %d with error %q", status, res.Error)
				}
				if status == http.StatusBadRequest {
					if !frameRule && res.Ingested+res.Duplicates+res.Rejected != c.failAt {
						t.Fatalf("counts %+v do not sum to the failing record %d", res, c.failAt)
					}
					if prefix := fmt.Sprintf("record %d:", c.failAt); !strings.HasPrefix(res.Error, prefix) {
						t.Fatalf("error %q does not open with %q", res.Error, prefix)
					}
				}
				if status == http.StatusTooManyRequests && hdr.Get("Retry-After") == "" {
					t.Fatal("429 without Retry-After")
				}
				if _, total := svc.Store().Window(64512); total != uint64(want.Ingested) {
					t.Fatalf("store total %d, want the %d ingested records", total, want.Ingested)
				}

				if c.heal == nil {
					return
				}
				c.heal(svc)
				status, _, res = post()
				if status != http.StatusOK || res != c.retry {
					t.Fatalf("retry: status %d, result %+v, want 200 and %+v", status, res, c.retry)
				}
			})
		}
	}
}

// encodeJSON frames attacks as a JSON-array /ingest body.
func encodeJSON(t testing.TB, attacks []trace.Attack) []byte {
	t.Helper()
	body, err := json.Marshal(attacks)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func writeNDJSON(t testing.TB, w io.Writer, a *trace.Attack) {
	t.Helper()
	buf, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestTargetGaugesFreshAfterErroredBatch pins the gauge-refresh fix:
// records committed before a mid-batch error must show in
// ddosd_targets_known even though the request failed.
func TestTargetGaugesFreshAfterErroredBatch(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	attacks := mkAttacks(64512, 0, 3)
	attacks[1].Family = "" // record 2 rejects; record 1 commits
	resp := postAttacks(t, srv.URL, attacks)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), "ddosd_targets_known 1") {
		t.Fatalf("ddosd_targets_known stale after errored batch:\n%s",
			grepLines(string(raw), "ddosd_targets_known"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestIngestBatchMatchesScalar drives the same multi-target stream
// through the scalar path and the vectorized path and requires
// byte-identical store state — the shard-grouped application must be
// invisible.
func TestIngestBatchMatchesScalar(t *testing.T) {
	stream := interleavedStream(t)

	scalar := New(testConfig())
	defer scalar.Close()
	for i := range stream {
		a := stream[i]
		if _, err := scalar.Ingest(&a); err != nil {
			t.Fatal(err)
		}
	}

	vec := New(testConfig())
	defer vec.Close()
	for lo := 0; lo < len(stream); lo += 7 {
		hi := min(lo+7, len(stream))
		if _, err := vec.IngestBatch(stream[lo:hi], nil); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := storeImage(t, vec.Store()), storeImage(t, scalar.Store()); !bytes.Equal(got, want) {
		t.Fatalf("vectorized store diverges from scalar store:\n got %s\nwant %s", got, want)
	}
}

// interleavedStream builds a deterministic multi-target stream with
// in-batch duplicates and out-of-order arrivals — the store edge cases.
func interleavedStream(t testing.TB) []trace.Attack {
	t.Helper()
	var stream []trace.Attack
	for _, as := range []astopo.AS{64512, 64513, 64514, 65000} {
		stream = append(stream, mkAttacks(as, int(as)*1000, 12)...)
	}
	// Interleave targets round-robin so shard groups are non-trivial.
	perTarget := 12
	out := make([]trace.Attack, 0, len(stream))
	for i := 0; i < perTarget; i++ {
		for tgt := 0; tgt < 4; tgt++ {
			out = append(out, stream[tgt*perTarget+i])
		}
	}
	// Swap two arrivals of one target out of order and duplicate another.
	out[8], out[12] = out[12], out[8]
	out = append(out, out[5])
	return out
}

// TestCrossWireEquivalence is the cross-protocol property: the same
// record stream through the JSON wire and the binary wire must yield
// byte-identical store checkpoints, and replaying each WAL into a fresh
// store must again yield byte-identical state.
func TestCrossWireEquivalence(t *testing.T) {
	stream := interleavedStream(t)
	cfg := testConfig()

	run := func(t *testing.T, dir string, post func(url string, batch []trace.Attack)) []byte {
		svc := New(cfg)
		defer svc.Close()
		svc.AttachWAL(openWAL(t, dir, 0), nil)
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		for lo := 0; lo < len(stream); lo += 7 {
			post(srv.URL, stream[lo:min(lo+7, len(stream))])
		}
		return storeImage(t, svc.Store())
	}

	jsonDir, binDir := t.TempDir(), t.TempDir()
	jsonImage := run(t, jsonDir, func(url string, batch []trace.Attack) {
		resp := postAttacks(t, url, batch)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("json wire status %d", resp.StatusCode)
		}
	})
	binImage := run(t, binDir, func(url string, batch []trace.Attack) {
		resp := postBinary(t, url, encodeBinaryBatch(t, batch))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary wire status %d", resp.StatusCode)
		}
	})
	if !bytes.Equal(jsonImage, binImage) {
		t.Fatalf("wire protocols diverge:\n json %s\n bin  %s", jsonImage, binImage)
	}

	// WAL replay state must match too: both logs hold the same binary
	// record frames, so recovery is wire-independent.
	replay := func(t *testing.T, dir string) []byte {
		svc := New(cfg)
		defer svc.Close()
		if _, err := svc.RecoverWAL(openWAL(t, dir, 0), nil); err != nil {
			t.Fatal(err)
		}
		return storeImage(t, svc.Store())
	}
	jsonReplay := replay(t, jsonDir)
	binReplay := replay(t, binDir)
	if !bytes.Equal(jsonReplay, binReplay) {
		t.Fatalf("WAL replay diverges across wires:\n json %s\n bin  %s", jsonReplay, binReplay)
	}
	if !bytes.Equal(jsonReplay, jsonImage) {
		t.Fatalf("WAL replay diverges from live store:\n replay %s\n live   %s", jsonReplay, jsonImage)
	}
}

// TestStoreOwnsBotLists pins that the store copies every record's bot
// list: a caller (the binary wire's pooled decoder) may overwrite its
// buffer as soon as IngestBatch returns, and neither Window nor
// Checkpoint may change, nor may a copy taken earlier change when later
// records land in the same target's bot chunk.
func TestStoreOwnsBotLists(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()

	attacks := mkAttacks(64512, 0, 40)
	attacks[3].Bots = make([]astopo.IPv4, 2*botChunk+1) // larger than a chunk
	attacks[5].Bots = nil
	var buf []astopo.IPv4 // one caller buffer behind every record's bots
	for i := range attacks {
		for j := range attacks[i].Bots {
			buf = append(buf, astopo.IPv4(i<<16|j+1))
		}
	}
	want := map[int][]astopo.IPv4{} // by attack ID
	off, firstBatch := 0, 0
	for i := range attacks {
		if n := len(attacks[i].Bots); n > 0 {
			attacks[i].Bots = buf[off : off+n]
			off += n
		}
		want[attacks[i].ID] = slices.Clone(attacks[i].Bots)
		if i == 29 {
			firstBatch = off
		}
	}
	check := func(what string, got []trace.Attack, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s holds %d records, want %d", what, len(got), n)
		}
		for i := range got {
			w := want[got[i].ID]
			if !slices.Equal(got[i].Bots, w) || (got[i].Bots == nil) != (w == nil) {
				t.Fatalf("%s attack %d bots = %v, want %v", what, got[i].ID, got[i].Bots, w)
			}
		}
	}

	if _, err := svc.IngestBatch(attacks[:30], nil); err != nil {
		t.Fatal(err)
	}
	early, _ := svc.Store().Window(64512)
	for i := range buf[:firstBatch] {
		buf[i] = 0xdeadbeef // the caller reuses its buffer
	}
	check("window", early, 30)

	// Later records fill the same target's chunk: the earlier copy and
	// the checkpoint must both keep the bots they were handed.
	if _, err := svc.IngestBatch(attacks[30:], nil); err != nil {
		t.Fatal(err)
	}
	check("earlier window copy", early, 30)
	cp := svc.Store().Checkpoint()
	if len(cp) != 1 {
		t.Fatalf("checkpoint holds %d targets, want 1", len(cp))
	}
	check("checkpoint", cp[0].Attacks, 40)
}

// TestBinaryWireKeepsBotsAcrossBatches is TestStoreOwnsBotLists over
// HTTP: pooled batch decoders reuse their bot arena for the next request,
// which must not reach records an earlier request stored.
func TestBinaryWireKeepsBotsAcrossBatches(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	first := mkAttacks(64512, 0, 8)
	for i := range first {
		for j := range first[i].Bots {
			first[i].Bots[j] = astopo.IPv4(1000*i + j + 1)
		}
	}
	post := func(batch []trace.Attack) {
		t.Helper()
		resp := postBinary(t, srv.URL, encodeBinaryBatch(t, batch))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	post(first)
	for b := 0; b < 20; b++ {
		next := mkAttacks(65000, 100*(b+1), 8)
		for i := range next {
			for j := range next[i].Bots {
				next[i].Bots[j] = 0xfeedface
			}
		}
		post(next)
	}
	window, _ := svc.Store().Window(64512)
	if len(window) != len(first) {
		t.Fatalf("window holds %d records, want %d", len(window), len(first))
	}
	for i := range window {
		if !slices.Equal(window[i].Bots, first[i].Bots) {
			t.Fatalf("record %d bots = %v, want %v", i, window[i].Bots, first[i].Bots)
		}
	}
}

// TestIngestBatchDurableBeforeAck pins durability-before-ack on the
// batch path: every acked record is in the WAL when IngestBatch returns.
func TestIngestBatchDurableBeforeAck(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	svc := New(cfg)
	svc.AttachWAL(openWAL(t, dir, 0), nil)

	stream := mkAttacks(64512, 0, 20)
	br, err := svc.IngestBatch(stream, nil)
	if err != nil || br.Ingested != 20 {
		t.Fatalf("IngestBatch = %+v, %v", br, err)
	}
	st, ok := svc.WALStats()
	if !ok || st.Appends != 20 {
		t.Fatalf("WAL appends %d, want 20", st.Appends)
	}
	want := storeImage(t, svc.Store())
	svc.Close() // no checkpoint: the WAL is the only copy

	svc2 := New(cfg)
	defer svc2.Close()
	rs, err := svc2.RecoverWAL(openWAL(t, dir, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 20 || rs.Truncated {
		t.Fatalf("recovery %+v, want 20 clean replays", rs)
	}
	if got := storeImage(t, svc2.Store()); !bytes.Equal(got, want) {
		t.Fatal("batch-ingested records did not survive the crash")
	}
}

// TestIngestBatchZeroAlloc pins the pooling contract: once the arenas
// are warm, decode + vectorized apply (store, WAL, scoring, scheduling)
// allocates amortized (near-)zero per record.
func TestIngestBatchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	svc, bodies, dec := newZeroAllocHarness(t, 256)
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
	warm(64) // fill pools, arenas, shard maps, histogram buckets
	const perRound = 64
	avg := testing.AllocsPerRun(100, func() { warm(1) })
	if perRecord := avg / perRound; perRecord > 0.25 {
		t.Fatalf("decode+apply allocates %.3f/record (%.1f/batch), want amortized ~0", perRecord, avg)
	}
}

// newZeroAllocHarness builds a WAL-backed service plus nBodies
// pre-encoded 64-record binary batches across 8 targets (unique IDs, so
// every record is accepted, every frame reaches the WAL). Optional
// mutators adjust the config before the service is built (the detect
// variants turn the streaming detector on).
func newZeroAllocHarness(t testing.TB, nBodies int, mutate ...func(*Config)) (*Service, [][]byte, *trace.BatchDecoder) {
	t.Helper()
	cfg := testConfig()
	cfg.MinWindow = 1 << 20 // no refits: isolate the ingest path
	for _, m := range mutate {
		m(&cfg)
	}
	svc := New(cfg)
	t.Cleanup(svc.Close)
	w, err := wal.Open(wal.Options{
		Dir:          t.TempDir(),
		SegmentBytes: 1 << 30, // no rotation mid-measurement
		Sync:         wal.SyncPolicy{Mode: wal.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	svc.AttachWAL(w, nil)

	bodies := make([][]byte, nBodies)
	id := 0
	for i := range bodies {
		batch := make([]trace.Attack, 64)
		for j := range batch {
			id++
			batch[j] = mkAttacks(astopo.AS(64512+id%8), id*100, 1)[0]
		}
		bodies[i] = encodeBinaryBatch(t, batch)
	}
	return svc, bodies, trace.NewBatchDecoder()
}

// BenchmarkIngestBatchJSON is BenchmarkIngestBatchBinary's JSON-wire
// twin: the same 512 bodies, each sent as 64 NDJSON lines, decoded by
// decodeJSONIngest and applied with IngestBatch, as POST /ingest does for
// a JSON body. The records reach the WAL re-encoded, not as wire bytes.
func BenchmarkIngestBatchJSON(b *testing.B) {
	svc, bodies, dec := newZeroAllocHarness(b, 512)
	var r bytes.Reader
	ndjson := make([][]byte, len(bodies))
	for i, body := range bodies {
		r.Reset(body)
		dec.Reset(&r)
		if err := dec.Decode(0); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rec := range dec.Records() {
			if err := enc.Encode(&rec); err != nil {
				b.Fatal(err)
			}
		}
		ndjson[i] = buf.Bytes()
	}
	var batch []trace.Attack
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(ndjson[i%len(ndjson)])
		var err error
		if batch, err = decodeJSONIngest(&r, batch[:0], svc.cfg.MaxBatchRecords); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.IngestBatch(batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recs := float64(b.N * 64)
	b.ReportMetric(recs/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkIngestBatchBinary measures the server-side binary hot path —
// batch decode + vectorized store/WAL apply — in records/second and
// allocs/record.
func BenchmarkIngestBatchBinary(b *testing.B) {
	svc, bodies, dec := newZeroAllocHarness(b, 512)
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

// speedup times the two benchmarks one after the other and returns base's
// ns/op over fast's: how many times cheaper one op of fast is. Both must
// do the same work per op. It skips under -short: each call spends a few
// seconds timing.
func speedup(t *testing.T, fast, base func(*testing.B)) float64 {
	t.Helper()
	if testing.Short() {
		t.Skip("times two benchmarks")
	}
	f, b := testing.Benchmark(fast), testing.Benchmark(base)
	if f.N == 0 || b.N == 0 {
		t.Fatal("a compared benchmark failed")
	}
	return float64(b.NsPerOp()) / float64(f.NsPerOp())
}

// TestBinaryWireOutpacesJSON gates the binary wire's reason to exist: its
// server-side ingest path must move at least as many records per second
// as the JSON wire's over the same bodies.
func TestBinaryWireOutpacesJSON(t *testing.T) {
	x := speedup(t, BenchmarkIngestBatchBinary, BenchmarkIngestBatchJSON)
	t.Logf("binary wire ingests %.2fx the JSON wire's rec/s", x)
	if x < 1.0 {
		t.Fatalf("binary wire ingests %.2fx the JSON wire's rec/s, want >= 1.0x", x)
	}
}
