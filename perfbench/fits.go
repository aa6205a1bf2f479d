package main

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/astopo"
	"repro/internal/serve"
	"repro/internal/trace"
)

// fitRec is one call of the service's per-target fit function.
type fitRec struct {
	start, end  int64
	newRecords  uint64 // records this fit covers that the target's previous fit did not
	incremental bool
	failed      bool
	waitNS      int64 // fit start minus the ack of the oldest newly covered record; -1 when unknown
}

// fitLog is the benchmark's serve.Config.WrapFit hook: it times every
// fit as a "fit" span and keeps what the refit-plane metrics need.
type fitLog struct {
	clock  *clock
	ledger *ledger
	rec    *recorder
	mu     sync.Mutex
	last   map[astopo.AS]uint64 // all-time total the target's last published fit covered
	fits   []fitRec
}

func newFitLog(c *clock, l *ledger, rec *recorder) *fitLog {
	return &fitLog{clock: c, ledger: l, rec: rec, last: map[astopo.AS]uint64{}}
}

func (f *fitLog) wrap(next serve.FitFunc) serve.FitFunc {
	return func(as astopo.AS, window []trace.Attack, total uint64, gen uint64, cfg serve.Config) (*serve.TargetModels, error) {
		start := f.clock.now()
		tm, err := next(as, window, total, gen, cfg)
		end := f.clock.now()
		r := fitRec{start: start, end: end, failed: err != nil, waitNS: -1}
		if tm != nil {
			r.incremental = tm.Prov.Refit == "incremental"
		}
		f.mu.Lock()
		prev := f.last[as]
		if total > prev {
			r.newRecords = total - prev
			if ack, ok := f.ledger.ackTime(as, prev); ok {
				r.waitNS = start - ack
			}
		}
		if err == nil {
			f.last[as] = total
		}
		f.fits = append(f.fits, r)
		f.mu.Unlock()

		kind := "full"
		if r.incremental {
			kind = "incremental"
		}
		if r.failed {
			kind = "error"
		}
		f.rec.add(span{Name: "fit", Start: start, End: end, Attrs: map[string]string{
			"target": strconv.FormatUint(uint64(as), 10),
			"window": strconv.Itoa(len(window)),
			"refit":  kind,
		}})
		return tm, err
	}
}

// all returns a copy of every fit recorded so far.
func (f *fitLog) all() []fitRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fitRec(nil), f.fits...)
}

// at converts a wall-clock instant to the run clock.
func (c *clock) at(t time.Time) int64 { return int64(t.Sub(c.epoch)) }
