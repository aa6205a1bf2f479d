package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/astopo"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

// reqHeader carries the benchmark's request ID from the client span to
// the handler span, so the two link in the trace.
const reqHeader = "X-Perfbench-Req"

// ledger is the client's record of what it sent and what was acked, per
// target: the ack time of every acked record in ack order, history first.
// Ack order stands in for the server's apply order; the two differ only
// between requests in flight at the same time.
type ledger struct {
	mu   sync.Mutex
	acks map[astopo.AS][]int64
	sent map[astopo.AS]uint64
}

func newLedger() *ledger {
	return &ledger{acks: map[astopo.AS][]int64{}, sent: map[astopo.AS]uint64{}}
}

// send counts records as sent (acked or in flight) before their request
// leaves, so a forecast can never legitimately cover more than sent.
func (l *ledger) send(targets []astopo.AS) {
	l.mu.Lock()
	for _, as := range targets {
		l.sent[as]++
	}
	l.mu.Unlock()
}

func (l *ledger) ack(targets []astopo.AS, at int64) {
	l.mu.Lock()
	for _, as := range targets {
		l.acks[as] = append(l.acks[as], at)
	}
	l.mu.Unlock()
}

// read returns the age of a forecast covering observations records of
// as, read at now, and the target's sent count.
func (l *ledger) read(as astopo.AS, observations uint64, now int64) (age int64, sent uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return forecastAge(l.acks[as], observations, now), l.sent[as]
}

// ackTime returns the ack time of the target's i-th acked record (0-based).
func (l *ledger) ackTime(as astopo.AS, i uint64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	acks := l.acks[as]
	if i >= uint64(len(acks)) {
		return 0, false
	}
	return acks[i], true
}

// ackedCounts returns every target's acked record count.
func (l *ledger) ackedCounts() map[astopo.AS]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[astopo.AS]uint64, len(l.acks))
	for as, acks := range l.acks {
		out[as] = uint64(len(acks))
	}
	return out
}

// sample is one finished request (or one generator send) of the run.
type sample struct {
	due     int64   // when it was scheduled (its send time in a closed loop)
	done    int64   // when its answer arrived
	ms      float64 // latency from due (send lag for generator samples)
	records int     // records acked by an ingest
	ageS    float64 // forecast age; +Inf marks a failed read until fillFailedAges
}

// loadStats collects the client-side view of the run: raw per-request
// durations (quantiles are computed exactly from them), forecast ages,
// generator send lag, and failures.
type loadStats struct {
	mu          sync.Mutex
	ingest      []sample
	forecast    []sample
	sendLag     []sample
	attempted   int
	failed      int
	failReasons map[string]int
}

func (s *loadStats) fail(reason string) {
	s.mu.Lock()
	s.failed++
	if s.failReasons == nil {
		s.failReasons = map[string]int{}
	}
	s.failReasons[reason]++
	s.mu.Unlock()
}

func (s *loadStats) lag(due, late int64) {
	s.mu.Lock()
	s.sendLag = append(s.sendLag, sample{due: due, ms: float64(late) / 1e6})
	s.mu.Unlock()
}

// client drives one hosted service over loopback HTTP.
type client struct {
	base   string
	hc     *http.Client
	clock  *clock
	ledger *ledger
	stats  *loadStats
	rec    *recorder // nil in untraced runs
}

func newClient(base string, conns int, c *clock, l *ledger, rec *recorder) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				IdleConnTimeout:     time.Minute,
			},
		},
		clock:  c,
		ledger: l,
		stats:  &loadStats{},
		rec:    rec,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole response. The returned span ID is the
// request ID the handler span links to (0 when untraced).
func (c *client) do(req *http.Request) (status int, body []byte, id uint64, start int64, err error) {
	if c.rec != nil {
		id = c.rec.nextID()
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	start = c.clock.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, id, start, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, id, start, err
}

// ingest posts one pre-encoded body holding records for targets. due is
// when the request was scheduled (its send time in a closed loop);
// latency is timed from it.
func (c *client) ingest(body []byte, contentType string, targets []astopo.AS, due int64) {
	c.stats.mu.Lock()
	c.stats.attempted++
	c.stats.mu.Unlock()
	c.ledger.send(targets)
	req, err := http.NewRequest(http.MethodPost, c.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		c.stats.fail("ingest: " + err.Error())
		return
	}
	req.Header.Set("Content-Type", contentType)
	status, resp, id, start, err := c.do(req)
	end := c.clock.now()
	c.rec.add(span{ID: id, Req: id, Name: "client.ingest", Start: start, End: end,
		Attrs: map[string]string{"records": strconv.Itoa(len(targets))}})
	// A failed request counts as missing any latency limit.
	smp := sample{due: due, done: end, ms: math.Inf(1)}
	var res serve.IngestResult
	switch {
	case err != nil:
		c.stats.fail("ingest: transport error")
	case status != http.StatusOK:
		c.stats.fail(fmt.Sprintf("ingest: HTTP %d", status))
	case json.Unmarshal(resp, &res) != nil || res.Ingested+res.Duplicates != len(targets):
		c.stats.fail("ingest: short or undecodable ack")
	default:
		c.ledger.ack(targets, end)
		smp.ms, smp.records = float64(end-due)/1e6, len(targets)
	}
	c.stats.mu.Lock()
	c.stats.ingest = append(c.stats.ingest, smp)
	c.stats.mu.Unlock()
}

// forecastReply is the part of the /forecast body the gates check.
type forecastReply struct {
	TargetAS     astopo.AS `json:"target_as"`
	Observations uint64    `json:"observations"`
	Hour         float64   `json:"hour"`
	Day          float64   `json:"day"`
	DurationSec  float64   `json:"duration_sec"`
	Magnitude    float64   `json:"magnitude"`
}

// forecast reads one target that was published at setup, so any failure
// (including a 404) is a failed read.
func (c *client) forecast(as astopo.AS, due int64) {
	c.stats.mu.Lock()
	c.stats.attempted++
	c.stats.mu.Unlock()
	req, err := http.NewRequest(http.MethodGet, c.base+"/forecast?target="+strconv.FormatUint(uint64(as), 10), nil)
	if err != nil {
		c.stats.fail("forecast: " + err.Error())
		return
	}
	status, body, id, start, err := c.do(req)
	end := c.clock.now()
	c.rec.add(span{ID: id, Req: id, Name: "client.forecast", Start: start, End: end})
	smp := sample{due: due, done: end, ms: math.Inf(1), ageS: math.Inf(1)}
	switch {
	case err != nil:
		c.stats.fail("forecast: transport error")
	case status != http.StatusOK:
		c.stats.fail(fmt.Sprintf("forecast: HTTP %d", status))
	default:
		var fc forecastReply
		if err := json.Unmarshal(body, &fc); err != nil {
			c.stats.fail("forecast: undecodable body")
			break
		}
		ageNS, sent := c.ledger.read(as, fc.Observations, end)
		if err := checkForecast(&fc, as, sent); err != nil {
			c.stats.fail("forecast gate: " + err.Error())
			break
		}
		smp.ms, smp.ageS = float64(end-due)/1e6, float64(ageNS)/1e9
	}
	c.stats.mu.Lock()
	c.stats.forecast = append(c.stats.forecast, smp)
	c.stats.mu.Unlock()
}

// batch is one pre-encoded /ingest body and the target of each record.
type batch struct {
	body    []byte
	targets []astopo.AS
}

// closedLoop runs conns back-to-back senders until deadline (run clock),
// taking bodies from next in stream order. Every readEvery batches a
// sender reads one forecast, cycling round-robin through readTargets.
func closedLoop(c *client, next func() (batch, bool), contentType string, conns, readEvery int, readTargets []astopo.AS, deadline int64) {
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rr := k
			last := c.clock.now()
			for n := 1; c.clock.now() < deadline; n++ {
				b, ok := next()
				if !ok {
					return
				}
				start := c.clock.now()
				c.stats.lag(start, start-last) // client gap since the previous reply
				c.ingest(b.body, contentType, b.targets, start)
				if readEvery > 0 && n%readEvery == 0 && len(readTargets) > 0 {
					c.forecast(readTargets[rr%len(readTargets)], c.clock.now())
					rr += conns
				}
				last = c.clock.now()
			}
		}(k)
	}
	wg.Wait()
}

// batchSource encodes the closed loop's bodies ahead of the senders on
// its own goroutine, keeping a bounded buffer full: the loop's demand
// has no fixed ceiling, and pre-encoding for the fastest rate the daemon
// might reach would hold hundreds of megabytes.
type batchSource struct {
	ch   chan batch
	stop chan struct{}
	done chan struct{}
	err  error // set before ch closes on an encoding failure
}

// newBatchSource starts the encoder and returns once ahead bodies are
// buffered.
func newBatchSource(gen *loadgen.Generator, size, ahead int) *batchSource {
	s := &batchSource{ch: make(chan batch, ahead), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer close(s.ch)
		var buf []byte
		for {
			var b batch
			b, buf, s.err = encodeBatch(gen, size, buf)
			if s.err != nil {
				return
			}
			select {
			case s.ch <- b:
			case <-s.stop:
				return
			}
		}
	}()
	for len(s.ch) < ahead {
		select {
		case <-s.done:
			return s
		default:
			time.Sleep(time.Millisecond)
		}
	}
	return s
}

func (s *batchSource) next() (batch, bool) {
	b, ok := <-s.ch
	return b, ok
}

// close stops the encoder and waits for it to exit.
func (s *batchSource) close() error {
	close(s.stop)
	<-s.done
	return s.err
}

// scheduledOp is one open-loop request: an ingest of body, or a forecast
// read of target when body is nil. due is relative to the load's start.
type scheduledOp struct {
	due    int64
	body   *batch
	target astopo.AS
}

// openLoop fires every op at its due time (relative to the run-clock
// instant start) regardless of how earlier requests fare; a request
// waiting for one of the conns connections waits on the clock, so a
// stall shows as latency of the requests behind it. Send lag is how late
// the generator itself fired an op.
func openLoop(c *client, ops []scheduledOp, contentType string, start int64) {
	var wg sync.WaitGroup
	for i := range ops {
		op := &ops[i]
		due := start + op.due
		if d := due - c.clock.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		c.stats.lag(due, c.clock.now()-due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if op.body != nil {
				c.ingest(op.body.body, contentType, op.body.targets, due)
			} else {
				c.forecast(op.target, due)
			}
		}()
	}
	wg.Wait()
}
