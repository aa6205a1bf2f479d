package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/astopo"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/trace"
)

// HTTP layer. Endpoints:
//
//	POST /ingest        — attack records: one object, an array, or NDJSON;
//	                      or a binary batch with Content-Type
//	                      application/x-ddos-batch (trace.BatchEncoder);
//	                      either wire feeds one batch call per request
//	GET  /forecast      — ?target=<AS>: next-attack forecast for the target
//	GET  /healthz       — liveness + store/registry/backlog summary
//	GET  /metrics       — Prometheus text exposition
//	GET  /accuracy      — windowed online forecast-accuracy per model
//	GET  /alerts        — streaming-detector state: counters plus the
//	                      recent raise/clear ring (?limit=N)
//	GET  /debug/traces  — ring of recent pipeline traces (JSON span trees;
//	                      ?trace=<id>, ?stage=<name>, ?min_ms=<d> filters)
//	GET  /statusz       — this node's full status (health + WAL + detect +
//	                      accuracy + runtime); cluster.Node shadows this
//	                      route with the fleet-wide fan-out version
//	GET  /debug/bundle  — SLO watchdog diagnostics bundles (StartWatchdog)
//	GET  /buildinfo     — module, version, VCS revision
//
// Errors are JSON {"error": "..."}; load shedding answers 429 with a
// Retry-After hint. pprof and expvar live on the separate opt-in admin
// mux (obs.AdminMux, ddosd -admin-addr), not here.

// Handler returns the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/forecast", s.handleForecast)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.tel.reg.Handler())
	mux.Handle("/accuracy", s.acc.Handler())
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.Handle("/debug/traces", s.tracer.Handler())
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/bundle", s.handleBundle)
	mux.HandleFunc("/buildinfo", obs.BuildInfo)
	return mux
}

// IngestResult is the /ingest response body, the same on both wires. On
// a mid-batch failure the same shape comes back with Error set:
// Ingested/Duplicates report what the service already committed before
// the bad record, so clients can resume a partially applied batch
// instead of blindly resending it. The failing record itself is counted
// in Rejected and the error names its 1-based position — always
// Ingested+Duplicates+Rejected. A failed WAL append (500) counts every
// record of the request, all of them in memory; shedding (429) and a body
// over either cap (413) apply nothing. (Binary batches add one rule: a
// frame that fails to decode aborts the whole batch before anything is
// applied, so all three counts come back zero and the error still names
// the frame's position.)
type IngestResult struct {
	Ingested   int    `json:"ingested"`
	Duplicates int    `json:"duplicates"`
	Rejected   int    `json:"rejected"`
	Error      string `json:"error,omitempty"`
}

// handleIngest decodes one request on either wire into a []trace.Attack,
// applies it with one ingestBatch call, and answers through
// writeIngestResult.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.tel.ingestSeconds.Observe(time.Since(start).Seconds()) }()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// One root span per request; ingestBatch's stage wall times are
	// attached as pre-measured children (ingestBatch already observed them
	// in the stage histograms, so Attach keeps the trace tree without
	// double-counting). A request forwarded by a cluster router carries
	// trace context (header on proxied sub-requests, ?xtrace= on 307
	// redirects) — this root then joins the router's trace instead of
	// opening its own.
	ctx, _ := obs.ContextFromRequest(r)
	span := s.tracer.StartRemote(StageIngest, ctx)
	var st ingestStageTimes
	outcome := "ok"
	var res IngestResult
	defer func() {
		span.Attach(StageAppend, start, st.Append)
		span.Attach(StageDetect, start, st.Detect)
		span.Attach(StageWAL, start, st.WAL)
		span.Attach(StageScore, start, st.Score)
		span.Attach(StageSchedule, start, st.Schedule)
		span.SetAttr("outcome", outcome)
		span.SetAttr("ingested", strconv.Itoa(res.Ingested))
		span.SetAttr("duplicates", strconv.Itoa(res.Duplicates))
		span.End()
	}()
	// Refresh the target gauges on every exit, not only full success:
	// records committed mid-batch must show even when the request then
	// errors, or ddosd_targets_* goes stale under sustained error traffic.
	defer s.updateTargetGauges()

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes)
	var records []trace.Attack
	var payload func(int) []byte
	var err error
	if r.Header.Get("Content-Type") == trace.BatchContentType {
		dec := batchDecPool.Get().(*trace.BatchDecoder)
		defer batchDecPool.Put(dec)
		dec.Reset(body)
		err = dec.Decode(s.cfg.MaxBatchRecords)
		records, payload = dec.Records(), dec.Payload
	} else {
		buf := jsonRecsPool.Get().(*[]trace.Attack)
		defer func() {
			clear(*buf) // don't pin bot lists and family strings in the pool
			jsonRecsPool.Put(buf)
		}()
		records, err = decodeJSONIngest(body, (*buf)[:0], s.cfg.MaxBatchRecords)
		*buf = records
	}
	// A decode error applies nothing, except a JSON record that fails to
	// decode: the records before it still apply, as on a mid-batch reject.
	var prefix *BatchRecordError
	if err == nil || errors.As(err, &prefix) {
		br, times, applyErr := s.ingestBatch(records, payload, true)
		st, res.Ingested, res.Duplicates = times, br.Ingested, br.Duplicates
		if applyErr != nil {
			err = applyErr
		}
	}
	outcome = writeIngestResult(w, res, err)
}

// writeIngestResult answers an /ingest request — one status mapping for
// both wires — and returns the span's outcome. An error body keeps the
// committed counts alongside the error.
func writeIngestResult(w http.ResponseWriter, res IngestResult, err error) string {
	if err == nil {
		writeJSON(w, http.StatusOK, &res)
		return "ok"
	}
	res.Error = err.Error()
	// The default: an invalid record, or a torn, corrupt, or mislabeled
	// binary body (which applied nothing).
	status, outcome := http.StatusBadRequest, "bad_record"
	var tooBig *http.MaxBytesError
	var tooMany *trace.BatchTooLargeError
	var bad *BatchRecordError
	switch {
	case errors.As(err, &tooBig):
		status, outcome = http.StatusRequestEntityTooLarge, "too_large"
		res.Error = fmt.Sprintf("request body larger than %d bytes", tooBig.Limit)
	case errors.As(err, &tooMany):
		status, outcome = http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, ErrShedding):
		status, outcome = http.StatusTooManyRequests, "shed"
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrNotDurable):
		// Applied in memory but not persisted: fail the request so the
		// client retries; the dedup window absorbs the replayed records.
		status, outcome = http.StatusInternalServerError, "not_durable"
	case errors.As(err, &bad):
		res.Rejected = 1 // the failing record; nothing after it was applied
	}
	writeJSON(w, status, &res)
	return outcome
}

// batchDecPool recycles binary batch decoders across /ingest requests;
// a warm decoder's arenas make the decode path amortized zero-alloc.
var batchDecPool = sync.Pool{New: func() any { return trace.NewBatchDecoder() }}

// jsonRecsPool recycles the JSON wire's decoded-record slices.
var jsonRecsPool = sync.Pool{New: func() any { return new([]trace.Attack) }}

// decodeJSONIngest appends a JSON /ingest body — one object, an array,
// or NDJSON — to recs. Like the binary wire's BatchDecoder.Decode, a
// body over maxRecords records or over the byte cap returns an error
// that applies nothing. A record that fails to decode ends the body
// instead: the records before it are returned with a *BatchRecordError
// naming its 1-based position, and the caller still applies them.
func decodeJSONIngest(body io.Reader, recs []trace.Attack, maxRecords int) ([]trace.Attack, error) {
	dec := trace.NewStreamDecoder(body)
	var tooBig *http.MaxBytesError
	for {
		a, err := dec.Next()
		switch {
		case errors.Is(err, io.EOF):
			return recs, nil
		case errors.As(err, &tooBig):
			return recs, err
		case err != nil:
			return recs, &BatchRecordError{Index: len(recs) + 1, Err: err}
		case len(recs) == maxRecords:
			return recs, &trace.BatchTooLargeError{Max: maxRecords}
		}
		recs = append(recs, *a)
	}
}

func (s *Service) handleForecast(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.tel.forecastSecs.Observe(time.Since(start).Seconds()) }()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ctx, _ := obs.ContextFromRequest(r)
	span := s.tracer.StartRemote(StageForecast, ctx)
	outcome := "hit"
	defer func() {
		span.SetAttr("outcome", outcome)
		span.End()
	}()
	q := r.URL.Query().Get("target")
	if q == "" {
		outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "missing target parameter (AS number)")
		return
	}
	asn, err := strconv.ParseUint(q, 10, 32)
	if err != nil {
		outcome = "bad_request"
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad target %q: %v", q, err))
		return
	}
	span.SetAttr("target", q)
	fc, err := s.reg.Forecast(astopo.AS(asn))
	if err != nil {
		s.tel.forecastMisses.Inc()
		outcome = "miss"
		if window, _ := s.store.Window(astopo.AS(asn)); window != nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf(
				"target AS%d warming up: %d/%d records ingested, no model published yet",
				asn, len(window), s.cfg.MinWindow))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown target AS%d", asn))
		return
	}
	s.tel.forecasts.Inc()
	writeJSON(w, http.StatusOK, fc)
}

// AlertsReport is the /alerts response body. With detection off only
// Enabled is present; otherwise Stats carries the detector counters and
// Alerts the most-recent-first raise/clear ring (capped by ?limit=N).
type AlertsReport struct {
	Enabled bool           `json:"enabled"`
	Stats   *detect.Stats  `json:"stats,omitempty"`
	Alerts  []detect.Alert `json:"alerts,omitempty"`
}

func (s *Service) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	d := s.store.Detector()
	if d == nil {
		writeJSON(w, http.StatusOK, &AlertsReport{Enabled: false})
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", q))
			return
		}
		limit = n
	}
	stats := d.Stats()
	writeJSON(w, http.StatusOK, &AlertsReport{
		Enabled: true,
		Stats:   &stats,
		Alerts:  d.Recent(limit),
	})
}

// Health is the /healthz response body. Cluster is present only when the
// node runs in cluster mode (cluster.Status via SetClusterInfo): node
// identity, ring epoch, peer count, replication lag — the fields smoke/CI
// polls to wait on cluster formation.
type Health struct {
	Status          string  `json:"status"`
	UptimeSec       float64 `json:"uptime_sec"`
	Shards          int     `json:"shards"`
	TargetsKnown    int     `json:"targets_known"`
	TargetsServed   int     `json:"targets_served"`
	SnapshotVersion uint64  `json:"snapshot_version"`
	RefitLag        int64   `json:"refit_lag"`
	Shedding        bool    `json:"shedding"`
	Cluster         any     `json:"cluster,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.updateTargetGauges()
	writeJSON(w, http.StatusOK, &Health{
		Status:          "ok",
		UptimeSec:       time.Since(s.start).Seconds(),
		Shards:          s.store.Shards(),
		TargetsKnown:    s.store.Len(),
		TargetsServed:   s.reg.Size(),
		SnapshotVersion: s.reg.Version(),
		RefitLag:        s.sched.Lag(),
		Shedding:        s.sched.Overloaded(),
		Cluster:         s.clusterInfoValue(),
	})
}

func (s *Service) updateTargetGauges() {
	s.tel.targetsKnown.Set(int64(s.store.Len()))
	s.tel.targetsServed.Set(int64(s.reg.Size()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
