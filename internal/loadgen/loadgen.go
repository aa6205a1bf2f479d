package loadgen

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Mode selects the driver's pacing discipline.
type Mode int

const (
	// ClosedLoop sends back-to-back from Workers goroutines: each worker
	// issues its next record the moment the previous call returns. It
	// measures the sink's maximum sustainable throughput; latency is the
	// bare call duration.
	ClosedLoop Mode = iota
	// OpenLoop schedules arrivals on a clock at Rate (optionally ramping
	// to RateEnd) regardless of how fast the sink answers. Latency is
	// completion minus the scheduled arrival, so a sink that falls behind
	// accrues queue wait instead of silently slowing the generator
	// (no coordinated omission).
	OpenLoop
)

func (m Mode) String() string {
	if m == OpenLoop {
		return "open-loop"
	}
	return "closed-loop"
}

// Config tunes one driver run.
type Config struct {
	Mode Mode
	// Records is the total number of records to send. Required.
	Records int
	// Workers is the sink-call concurrency. Default 4.
	Workers int
	// Rate is the open-loop arrival rate in records/second at the start of
	// the run. Required for OpenLoop.
	Rate float64
	// RateEnd, when positive, ramps the arrival rate linearly from Rate to
	// RateEnd across the run (stress ramps; find the shedding knee).
	RateEnd float64
	// Batch groups this many records per sink call when the sink
	// implements BatchSink (HTTPSink: one request per batch; ServiceSink:
	// one vectorized IngestBatch). Default 1: scalar Ingest calls.
	Batch int
}

// workItem pairs a record with its scheduled arrival.
type workItem struct {
	a   *trace.Attack
	due time.Time
}

// Run drives records from next into sink per cfg and reports the outcome.
// next is pulled under a driver lock, so generators and chaos stream
// wrappers need no concurrency handling of their own. A nil record from
// next ends the run early (finite sources).
func Run(cfg Config, next func() *trace.Attack, sink Sink) (*Report, error) {
	if cfg.Records < 1 {
		return nil, errors.New("loadgen: Config.Records must be positive")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	if cfg.Mode == OpenLoop && cfg.Rate <= 0 {
		return nil, errors.New("loadgen: open loop needs Config.Rate")
	}
	rep := &Report{Mode: cfg.Mode.String()}

	var (
		mu       sync.Mutex // serializes next()
		sent     atomic.Int64
		accepted atomic.Int64
		dups     atomic.Int64
		shed     atomic.Int64
		errCnt   atomic.Int64
		// Every record is observed once and a run sends at most Records,
		// so each observation claims its own slot.
		lats = make([]float64, cfg.Records)
		nLat atomic.Int64
	)
	pull := func() *trace.Attack {
		mu.Lock()
		defer mu.Unlock()
		return next()
	}
	observe := func(d time.Duration) {
		lats[nLat.Add(1)-1] = float64(d)
	}
	deliver := func(a *trace.Attack, due time.Time) {
		sent.Add(1)
		res, err := sink.Ingest(a)
		observe(time.Since(due))
		switch {
		case err != nil:
			errCnt.Add(1)
		case res.Shed:
			shed.Add(1)
		case res.Duplicate:
			dups.Add(1)
		case res.Accepted:
			accepted.Add(1)
		}
	}
	// Batched delivery: one sink call for the run, each record's latency
	// observed against its own due time (the whole batch completes when
	// the call returns).
	bsink, batched := sink.(BatchSink)
	batched = batched && cfg.Batch > 1
	deliverBatch := func(items []workItem, recs []*trace.Attack) {
		sent.Add(int64(len(items)))
		recs = recs[:0]
		for i := range items {
			recs = append(recs, items[i].a)
		}
		br, err := bsink.IngestBatch(recs)
		now := time.Now()
		for i := range items {
			observe(now.Sub(items[i].due))
		}
		switch {
		case err != nil:
			errCnt.Add(int64(len(items)))
		case br.Shed:
			shed.Add(int64(len(items)))
		default:
			accepted.Add(int64(br.Accepted))
			dups.Add(int64(br.Duplicates))
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	switch cfg.Mode {
	case ClosedLoop:
		var claimed atomic.Int64
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !batched {
					for claimed.Add(1) <= int64(cfg.Records) {
						a := pull()
						if a == nil {
							return
						}
						deliver(a, time.Now())
					}
					return
				}
				items := make([]workItem, 0, cfg.Batch)
				recs := make([]*trace.Attack, 0, cfg.Batch)
				for {
					items = items[:0]
					exhausted := false
					for len(items) < cfg.Batch {
						if claimed.Add(1) > int64(cfg.Records) {
							exhausted = true
							break
						}
						a := pull()
						if a == nil {
							exhausted = true
							break
						}
						items = append(items, workItem{a: a, due: time.Now()})
					}
					if len(items) > 0 {
						deliverBatch(items, recs)
					}
					if exhausted {
						return
					}
				}
			}()
		}
	case OpenLoop:
		work := make(chan workItem, cfg.Workers*4)
		workB := make(chan []workItem, cfg.Workers*2)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !batched {
					for item := range work {
						deliver(item.a, item.due)
					}
					return
				}
				recs := make([]*trace.Attack, 0, cfg.Batch)
				for items := range workB {
					deliverBatch(items, recs)
				}
			}()
		}
		// Dispatcher: the k-th arrival is due at the integral of the
		// linearly ramped rate. If workers fall behind, the send blocks
		// but due times stay on schedule — the backlog shows up as
		// latency, which is the point of the open loop. Batched runs group
		// consecutive arrivals, each keeping its own due time.
		due := start
		var pending []workItem
		for k := 0; k < cfg.Records; k++ {
			rate := cfg.Rate
			if cfg.RateEnd > 0 && cfg.Records > 1 {
				rate += (cfg.RateEnd - cfg.Rate) * float64(k) / float64(cfg.Records-1)
			}
			due = due.Add(time.Duration(float64(time.Second) / rate))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			a := pull()
			if a == nil {
				break
			}
			if !batched {
				work <- workItem{a: a, due: due}
				continue
			}
			pending = append(pending, workItem{a: a, due: due})
			if len(pending) >= cfg.Batch {
				workB <- pending
				pending = nil
			}
		}
		if len(pending) > 0 {
			workB <- pending
		}
		close(work)
		close(workB)
	}
	wg.Wait()

	rep.Elapsed = time.Since(start)
	rep.Sent = sent.Load()
	rep.Accepted = accepted.Load()
	rep.Dups = dups.Load()
	rep.Shed = shed.Load()
	rep.Errors = errCnt.Load()
	rep.setLatencies(lats[:nLat.Load()])
	return rep, nil
}
