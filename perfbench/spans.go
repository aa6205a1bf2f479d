package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the run's monotonic time base; every timestamp the benchmark
// keeps is nanoseconds since its epoch.
type clock struct{ epoch time.Time }

func newClock() *clock { return &clock{epoch: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the span that caused this one.
type span struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Req    uint64            `json:"req,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs stay untraced.
type recorder struct {
	clock *clock
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder(c *clock) *recorder { return &recorder{clock: c} }

func (r *recorder) nextID() uint64 { return r.ids.Add(1) }

// now is the run clock, or 0 for a nil recorder.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return r.clock.now()
}

// add records s, assigning an ID when it has none.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	if s.ID == 0 {
		s.ID = r.nextID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// wrapHandler times every request the service's handler serves as an
// http.<endpoint> span, linked to the client span through reqHeader, and
// counts the response bytes.
func (r *recorder) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := r.clock.now()
		next.ServeHTTP(cw, req)
		end := r.clock.now()
		id, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
		r.add(span{Parent: id, Req: id, Name: "http." + strings.TrimPrefix(req.URL.Path, "/"), Start: start, End: end,
			Attrs: map[string]string{
				"bytes":  strconv.Itoa(cw.n),
				"status": strconv.Itoa(cw.status),
			}})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n      int
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][][2]int64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi).
func covered(lo, hi int64, intervals [][2]int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes the run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
