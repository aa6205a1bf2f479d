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
	// Batch is the records per sink call (HTTPSink: one request;
	// ServiceSink: one serve.Service.IngestBatch). Default 1.
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
	if cfg.Batch < 1 {
		cfg.Batch = 1
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
	// deliver makes one sink call for the items, each record's latency
	// observed against its own due time (the whole call completes when it
	// returns).
	deliver := func(items []workItem, recs []*trace.Attack) {
		sent.Add(int64(len(items)))
		recs = recs[:0]
		for i := range items {
			recs = append(recs, items[i].a)
		}
		res, err := sink.IngestBatch(recs)
		now := time.Now()
		for i := range items {
			lats[nLat.Add(1)-1] = float64(now.Sub(items[i].due))
		}
		switch {
		case err != nil:
			errCnt.Add(int64(len(items)))
		case res.Shed:
			shed.Add(int64(len(items)))
		default:
			accepted.Add(int64(res.Accepted))
			dups.Add(int64(res.Duplicates))
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
						deliver(items, recs)
					}
					if exhausted {
						return
					}
				}
			}()
		}
	case OpenLoop:
		// Two calls queued per worker keep every worker busy without
		// letting the dispatcher run far ahead of them.
		work := make(chan []workItem, cfg.Workers*2)
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs := make([]*trace.Attack, 0, cfg.Batch)
				for items := range work {
					deliver(items, recs)
				}
			}()
		}
		// Dispatcher: the k-th arrival is due at the integral of the
		// linearly ramped rate. If workers fall behind, the send blocks
		// but due times stay on schedule — the backlog shows up as
		// latency, which is the point of the open loop. Consecutive
		// arrivals group into calls of Batch, each keeping its own due
		// time.
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
			pending = append(pending, workItem{a: a, due: due})
			if len(pending) >= cfg.Batch {
				work <- pending
				pending = nil
			}
		}
		if len(pending) > 0 {
			work <- pending
		}
		close(work)
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
