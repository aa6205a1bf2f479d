package serve

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astopo"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// scheduler is the background refit engine. Ingest marks targets stale;
// the scheduler coalesces marks per target, queues them on a bounded
// channel, drains the queue in batches, refits every target of a batch
// concurrently on the parallel worker pool, and publishes the whole batch
// with one snapshot swap. The queue depth bounds memory; the lag counter
// (queued + in-flight refits) drives admission: past the watermark the
// HTTP layer sheds ingest load with 429 instead of letting the refit
// backlog grow without bound.
type scheduler struct {
	store  *Store
	reg    *Registry
	promo  *promoTracker
	cfg    Config
	tel    *telemetry
	tracer *obs.Tracer
	fit    FitFunc

	queue   chan astopo.AS
	mu      sync.Mutex
	pending map[astopo.AS]bool // targets queued but not yet picked up
	lag     atomic.Int64       // queued + in-flight targets

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newScheduler(store *Store, reg *Registry, promo *promoTracker, cfg Config, tel *telemetry, tracer *obs.Tracer) *scheduler {
	s := &scheduler{
		store:   store,
		reg:     reg,
		promo:   promo,
		cfg:     cfg,
		tel:     tel,
		tracer:  tracer,
		queue:   make(chan astopo.AS, cfg.QueueDepth),
		pending: make(map[astopo.AS]bool, cfg.QueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	fit := FitFunc(s.fitOnline)
	if cfg.WrapFit != nil {
		fit = cfg.WrapFit(fit)
	}
	s.fit = fit
	go s.run()
	return s
}

// fitOnline is the scheduler's FitFunc: try the incremental fold-in path
// when enabled and eligible, fall back to the full refit, then run the
// champion/challenger contest against the target's live accuracy window.
// It is the function Config.WrapFit wraps, so chaos-injected faults cover
// both refit paths and the promotion decision rides inside the fit span.
func (s *scheduler) fitOnline(as astopo.AS, window []trace.Attack, total uint64, gen uint64, cfg Config) (*TargetModels, error) {
	prev, _ := s.reg.Lookup(as)
	var tm *TargetModels
	var err error
	if cfg.IncrementalRefit && prev != nil {
		tm, err = fitTargetIncremental(prev, as, window, total, gen, cfg)
		if err != nil {
			tm = nil // any failure — ineligibility or drift — means full refit
		}
	}
	if tm == nil {
		if tm, err = fitTarget(prev, as, window, total, gen, cfg); err != nil {
			return nil, err
		}
	}
	var prevChamps Champions
	var history []Promotion
	if prev != nil {
		prevChamps = prev.Prov.Champions
		history = prev.Prov.History
	}
	champs, promos := decideChampions(prevChamps, s.promo.get(as), tm.Ensemble.ready(), gen, cfg)
	tm.Prov.Champions = champs
	tm.Prov.History = appendHistory(history, promos)
	return tm, nil
}

// TryEnqueue marks a target for refit. Marks for an already-queued target
// coalesce (the refit will read the latest window anyway). A full queue
// drops the mark and reports false; the target stays stale and the next
// ingest for it will try again.
func (s *scheduler) TryEnqueue(as astopo.AS) bool {
	s.mu.Lock()
	if s.pending[as] {
		s.mu.Unlock()
		return true
	}
	s.pending[as] = true
	s.mu.Unlock()
	select {
	case s.queue <- as:
		// The lag gauge is derived from s.lag at scrape time (Service.New
		// registers an OnScrape hook); setting it here too would race other
		// enqueues/drains into stale-last-writer values.
		s.lag.Add(1)
		return true
	default:
		s.mu.Lock()
		delete(s.pending, as)
		s.mu.Unlock()
		s.tel.refitsDropped.Inc()
		return false
	}
}

// Overloaded reports whether the refit backlog has crossed the admission
// watermark — the HTTP layer answers 429 while this holds.
func (s *scheduler) Overloaded() bool {
	return s.lag.Load() > int64(s.cfg.LagWatermark)
}

// Lag returns the current refit backlog (queued + in-flight).
func (s *scheduler) Lag() int64 { return s.lag.Load() }

// Stop terminates the run loop after the in-flight batch completes.
func (s *scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Flush blocks until the queue is empty and no refit is in flight (test
// and shutdown helper; ingest may keep adding work while it waits). A
// stopped scheduler never drains its queue, so Flush also returns once the
// run loop has exited — otherwise a Stop/Flush race (SIGTERM while refits
// are queued) would spin forever.
func (s *scheduler) Flush() {
	for s.lag.Load() > 0 {
		select {
		case <-s.done:
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *scheduler) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.queue:
			batch := s.collectBatch(first)
			s.refitBatch(batch)
		}
	}
}

// collectBatch drains up to BatchSize-1 more queued targets without
// blocking, so bursty ingest amortizes into one snapshot swap.
func (s *scheduler) collectBatch(first astopo.AS) []astopo.AS {
	batch := []astopo.AS{first}
	for len(batch) < s.cfg.BatchSize {
		select {
		case as := <-s.queue:
			batch = append(batch, as)
		default:
			return batch
		}
	}
	return batch
}

// refitBatch fits every target of the batch on the worker pool and
// publishes the survivors with a single atomic snapshot swap. The whole
// batch is one "refit" trace: a "fit" child per target (workers open
// children concurrently) and a "publish" child for the snapshot swap.
func (s *scheduler) refitBatch(batch []astopo.AS) {
	// A target is in-flight from here: clear its pending mark so records
	// arriving during the refit can re-queue it.
	s.mu.Lock()
	for _, as := range batch {
		delete(s.pending, as)
	}
	s.mu.Unlock()

	root := s.tracer.Start(StageRefit)
	root.SetAttr("targets", strconv.Itoa(len(batch)))

	// Generations are drawn in batch order before the fan-out, so the
	// labels a batch gets do not depend on worker scheduling.
	gens := make([]uint64, len(batch))
	for i := range gens {
		gens[i] = s.reg.NextGeneration()
	}
	fitted := make([]*TargetModels, len(batch))
	totals := make([]uint64, len(batch))
	_ = parallel.ForEach(len(batch), s.cfg.RefitWorkers, func(i int) error {
		span := root.Child(StageFit)
		span.SetAttr("as", strconv.FormatUint(uint64(batch[i]), 10))
		start := time.Now()
		window, total := s.store.Window(batch[i])
		tm, err := s.fit(batch[i], window, total, gens[i], s.cfg)
		if err != nil {
			s.tel.refitErrors.Inc()
			span.SetAttr("outcome", "skipped: "+err.Error())
			span.End()
			return nil // not-ready targets are routine, not batch failures
		}
		fitted[i] = tm
		totals[i] = total
		s.tel.refitSeconds.Observe(time.Since(start).Seconds())
		span.SetAttr("outcome", "published")
		span.SetAttr("generation", strconv.FormatUint(tm.Generation, 10))
		span.End()
		return nil
	})
	pub := root.Child(StagePublish)
	s.reg.Publish(fitted)
	pub.End()
	published := 0
	for i, as := range batch {
		tm := fitted[i]
		if tm == nil {
			continue
		}
		s.store.MarkRefitted(as, totals[i])
		s.tel.refitsDone.Inc()
		published++
		switch {
		case tm.Prov.Refit == refitIncremental:
			s.tel.refitIncremental.Inc()
		case tm.Prov.FullRefitsSinceSearch == 0:
			s.tel.refitSearches.Inc()
		}
		for _, p := range tm.Prov.History {
			if p.Generation == tm.Generation {
				s.tel.promotions.With(p.To).Inc()
			}
		}
		// A bounded store may have evicted this target while its refit was
		// in flight; publishing it anyway would resurrect a ghost, so drop
		// it again (the eviction hook already dropped the old generation).
		if s.cfg.MaxTargets > 0 && !s.store.Known(as) {
			s.reg.Drop(as)
			s.promo.Drop(as)
		}
	}
	root.SetAttr("published", strconv.Itoa(published))
	root.End()
	s.lag.Add(-int64(len(batch)))
}
