package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/trace"
)

// FuzzIngestHandler feeds arbitrary bytes to POST /ingest on the wire the
// input picks: whatever the body, the handler must answer a well-formed
// JSON response with one of the documented status codes and never panic
// or corrupt the store. After a 200 the store checkpoint must marshal and
// /forecast must answer valid JSON for every target the body touched,
// once the refits it triggered have published.
func FuzzIngestHandler(f *testing.F) {
	f.Add(false, []byte(`{"id":1,"family":"DirtJumper","start":"2012-08-01T00:00:00Z","duration_sec":60,"target_as":64512}`))
	f.Add(false, []byte(`[{"id":1,"family":"a","start":"2012-08-01T00:00:00Z","target_as":1},{"id":2,"family":"a","start":"2012-08-01T01:00:00Z","target_as":1}]`))
	f.Add(false, []byte("{\"id\":1,\"family\":\"a\",\"start\":\"2012-08-01T00:00:00Z\",\"target_as\":1}\n{\"id\":2,\"family\":\"a\",\"start\":\"2012-08-01T01:00:00Z\",\"target_as\":1}"))
	f.Add(false, []byte(`[]`))
	f.Add(false, []byte(``))
	f.Add(false, []byte(`{`))
	f.Add(false, []byte(`[{]`))
	f.Add(false, []byte(`{"id":0}`))
	f.Add(false, []byte(`{"id":1,"family":"a","start":"2012-08-01T00:00:00Z","duration_sec":-5,"target_as":1}`))
	f.Add(false, []byte(`nonsense`))
	f.Add(false, []byte("\x00\x01\x02"))
	f.Add(true, encodeBinaryBatch(f, mkAttacks(64512, 0, 8)))
	nan := mkAttacks(64513, 100, 8)
	nan[7].DurationSec = math.NaN()
	f.Add(true, encodeBinaryBatch(f, nan))
	f.Add(true, []byte("\x00\x01\x02"))

	cfg := testConfig()
	cfg.MaxBatchRecords = 64
	svc := New(cfg)
	f.Cleanup(svc.Close)
	handler := svc.Handler()

	f.Fuzz(func(t *testing.T, binary bool, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		if binary {
			req.Header.Set("Content-Type", trace.BatchContentType)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.Bytes(), body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		if _, err := json.Marshal(svc.Store().Checkpoint()); err != nil {
			t.Fatalf("store checkpoint does not marshal after body %q: %v", body, err)
		}
		// The body decoded once, so it decodes again to the same records.
		var records []trace.Attack
		if binary {
			dec := trace.NewBatchDecoder()
			dec.Reset(bytes.NewReader(body))
			_ = dec.Decode(cfg.MaxBatchRecords)
			records = dec.Records()
		} else {
			records, _ = decodeJSONIngest(bytes.NewReader(body), nil, cfg.MaxBatchRecords)
		}
		svc.Flush()
		for i := range records {
			fc := httptest.NewRecorder()
			handler.ServeHTTP(fc, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/forecast?target=%d", records[i].TargetAS), nil))
			if !json.Valid(fc.Body.Bytes()) {
				t.Fatalf("/forecast?target=%d answered %d %q after body %q", records[i].TargetAS, fc.Code, fc.Body.Bytes(), body)
			}
		}
	})
}
