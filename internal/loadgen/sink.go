package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// Result classifies one sink call.
type Result struct {
	// Accepted records entered the store as new.
	Accepted int
	// Duplicates were deduplicated (known attack IDs).
	Duplicates int
	// Shed: the service refused the whole call under load (429 /
	// ErrShedding).
	Shed bool
}

// Sink is where the driver pushes records, Config.Batch of them per call
// (a single record is a batch of one). Implementations classify the
// outcome; an error means the call was rejected for a non-load reason
// (validation, transport) and counts every record in it against the run.
type Sink interface {
	IngestBatch(recs []*trace.Attack) (Result, error)
}

// ServiceSink drives an in-process serve.Service through IngestBatch —
// the zero-transport path, for soak tests and maximum-pressure runs.
type ServiceSink struct {
	Svc *serve.Service
}

// svcBatchPool recycles ServiceSink.IngestBatch's record scratch.
var svcBatchPool = sync.Pool{New: func() any { return new([]trace.Attack) }}

// IngestBatch implements Sink.
func (s ServiceSink) IngestBatch(recs []*trace.Attack) (Result, error) {
	bp := svcBatchPool.Get().(*[]trace.Attack)
	arr := (*bp)[:0]
	for _, a := range recs {
		arr = append(arr, *a)
	}
	br, err := s.Svc.IngestBatch(arr, nil)
	*bp = arr[:0]
	svcBatchPool.Put(bp)
	switch {
	case errors.Is(err, serve.ErrShedding):
		return Result{Shed: true}, nil
	case err != nil:
		return Result{}, err
	}
	return Result{Accepted: br.Ingested, Duplicates: br.Duplicates}, nil
}

// HTTPSink drives a live ddosd over POST /ingest: one request per
// IngestBatch call, on the wire Wire selects.
type HTTPSink struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client defaults to a dedicated client with sane timeouts.
	Client *http.Client
	// Wire selects the request encoding: "json" (NDJSON body, the
	// default) or "binary" (application/x-ddos-batch frames).
	Wire string

	bufs sync.Pool // *batchBuf: request-body scratch per in-flight call
}

// batchBuf is one pooled request-encoding workspace.
type batchBuf struct {
	body bytes.Buffer
	enc  *trace.BatchEncoder
	je   *json.Encoder
}

// NewHTTPSink returns a sink with a connection-reusing client.
func NewHTTPSink(baseURL string) *HTTPSink {
	return &HTTPSink{
		BaseURL: baseURL,
		Client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		},
	}
}

func (s *HTTPSink) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

// post sends one /ingest request with an explicit GetBody so the client
// replays the payload across 307/308 redirects. A cluster node in
// redirect routing answers /ingest with 307 to the owner node; without
// GetBody the redirected request would carry an empty body and the
// records would be lost. Pinned by TestHTTPSinkResendsBodyOn307.
func (s *HTTPSink) post(contentType string, payload []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, s.BaseURL+"/ingest", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(payload)), nil
	}
	return s.client().Do(req)
}

// IngestBatch implements Sink: all records in one request. The binary
// wire encodes trace.BatchEncoder frames under the batch content type;
// the JSON wire sends NDJSON, which /ingest's stream decoder accepts
// natively — so both wires exercise the same endpoint and the comparison
// isolates the encoding.
func (s *HTTPSink) IngestBatch(recs []*trace.Attack) (Result, error) {
	b, _ := s.bufs.Get().(*batchBuf)
	if b == nil {
		b = &batchBuf{}
	}
	defer s.bufs.Put(b)
	b.body.Reset()
	contentType := "application/json"
	if s.Wire == "binary" {
		contentType = trace.BatchContentType
		if b.enc == nil {
			b.enc = trace.NewBatchEncoder(&b.body)
		} else {
			b.enc.Reset(&b.body)
		}
		for _, a := range recs {
			if err := b.enc.Encode(a); err != nil {
				return Result{}, err
			}
		}
	} else {
		if b.je == nil {
			b.je = json.NewEncoder(&b.body)
		}
		for _, a := range recs {
			if err := b.je.Encode(a); err != nil {
				return Result{}, err
			}
		}
	}
	resp, err := s.post(contentType, b.body.Bytes())
	if err != nil {
		return Result{}, err
	}
	// Drain before close so the keep-alive connection returns to the
	// transport's idle pool instead of being torn down (error paths and
	// trailing bytes must drain too — pinned by
	// TestHTTPSinkReusesConnections).
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var res serve.IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return Result{}, fmt.Errorf("loadgen: bad /ingest response: %w", err)
		}
		return Result{Accepted: res.Ingested, Duplicates: res.Duplicates}, nil
	case http.StatusTooManyRequests:
		return Result{Shed: true}, nil
	default:
		return Result{}, fmt.Errorf("loadgen: /ingest returned HTTP %d", resp.StatusCode)
	}
}

// MultiSink sprays calls round-robin across several sinks — the
// multi-node driver: point one ddosload at every cluster member and the
// nodes' ownership routing sorts each record to its owner regardless of
// which member received it. Safe for concurrent use when the underlying
// sinks are.
type MultiSink struct {
	Sinks []Sink
	next  atomic.Uint64
}

// NewMultiHTTPSink builds a MultiSink of HTTPSinks, one per base URL,
// all speaking the same wire.
func NewMultiHTTPSink(baseURLs []string, wire string) *MultiSink {
	m := &MultiSink{}
	for _, u := range baseURLs {
		hs := NewHTTPSink(u)
		hs.Wire = wire
		m.Sinks = append(m.Sinks, hs)
	}
	return m
}

// IngestBatch implements Sink.
func (m *MultiSink) IngestBatch(recs []*trace.Attack) (Result, error) {
	return m.Sinks[(m.next.Add(1)-1)%uint64(len(m.Sinks))].IngestBatch(recs)
}
