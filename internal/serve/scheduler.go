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

// scheduler is the background refit engine. Ingest marks a target after
// RefitEvery new records, and a sweep marks every target whose oldest
// unread record has waited staleAfter; the scheduler coalesces marks per
// target, queues them on a bounded channel, drains the queue in rounds of
// up to BatchSize targets, refits every target of a round concurrently on
// the parallel worker pool, and publishes each target's generation with
// its own snapshot swap the moment its fit ends. A round ends when its
// last fit does, so the round, not the publish, bounds how much CPU the
// fits take from ingest. The queue depth bounds memory; the lag counter
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
	pending map[astopo.AS]bool // targets marked whose refit has not read its window yet
	lag     atomic.Int64       // queued + in-flight targets

	ticker *time.Ticker  // drives sweep every staleAfter/4; tests Stop it and call sweep themselves
	stale  []astopo.AS   // sweep's reused buffer
	stop   chan struct{} // closed by Stop
	done   chan struct{} // closed when run returns

	stopOnce sync.Once
}

// staleAfter is the refit freshness deadline: a target whose oldest
// unread record has waited this long is queued even if it has fewer than
// RefitEvery new records. The sweep that enforces it runs every
// staleAfter/4 and costs O(targets).
const staleAfter = time.Second

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
		ticker:  time.NewTicker(staleAfter / 4),
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
	reason := fullFirstFit
	if prev != nil {
		reason = fullIncrementalOff
		if cfg.IncrementalRefit {
			// Any failure, ineligibility or drift, means a full refit.
			if tm, err = fitTargetIncremental(prev, as, window, total, gen, cfg); err != nil {
				reason = fullReasonOf(err)
			}
		}
	}
	if tm == nil {
		if tm, err = fitTarget(prev, as, window, total, gen, cfg); err != nil {
			return nil, err
		}
		s.tel.refitFull.With(reason).Inc()
	}
	var prevChamps Champions
	var history []Promotion
	if prev != nil {
		prevChamps = prev.Prov.Champions
		history = prev.Prov.History
	}
	champs, promos := decideChampions(prevChamps, s.promo.get(as), gen, cfg)
	tm.Prov.Champions = champs
	tm.Prov.History = appendHistory(history, promos)
	return tm, nil
}

// TryEnqueue marks a target for refit without waiting: the ingest path's
// mark. A full queue drops the mark and reports false; the target stays
// unread, so its next record or the staleness sweep tries again.
func (s *scheduler) TryEnqueue(as astopo.AS) bool {
	_, ok := s.enqueue(as, false)
	return ok
}

// enqueue marks a target for refit. A mark for a target that is already
// pending coalesces (its refit has not read its window yet, so it will
// cover the new records) and reports fresh false. A full queue drops the
// mark, or with wait set (boot and fail-over, which must queue every
// ready target) blocks until there is room or the scheduler stops; ok is
// false when the mark was not queued.
func (s *scheduler) enqueue(as astopo.AS, wait bool) (fresh, ok bool) {
	s.mu.Lock()
	if s.pending[as] {
		s.mu.Unlock()
		return false, true
	}
	s.pending[as] = true
	s.mu.Unlock()
	// The lag gauge is derived from s.lag at scrape time (Service.New
	// registers an OnScrape hook); setting it here too would race other
	// enqueues/drains into stale-last-writer values.
	if wait {
		select {
		case s.queue <- as:
			s.lag.Add(1)
			return true, true
		case <-s.stop:
		}
	} else {
		select {
		case s.queue <- as:
			s.lag.Add(1)
			return true, true
		default:
			s.tel.refitsDropped.Inc()
		}
	}
	s.mu.Lock()
	delete(s.pending, as)
	s.mu.Unlock()
	return false, false
}

// sweep enforces the freshness deadline at monotonic time now (monoNow):
// it queues every target holding at least MinWindow records whose oldest
// unread record arrived staleAfter or more before now. It stops at the
// first mark a full queue drops, so an overloaded queue is not rescanned
// and ddosd_refits_dropped_total counts marks, not sweep retries.
func (s *scheduler) sweep(now time.Duration) {
	s.stale = s.stale[:0]
	s.store.eachUnread(s.cfg.MinWindow, func(as astopo.AS, stamp time.Duration, _ int) {
		if now-stamp >= staleAfter {
			s.stale = append(s.stale, as)
		}
	})
	for _, as := range s.stale {
		fresh, ok := s.enqueue(as, false)
		if !ok {
			return
		}
		if fresh {
			s.tel.refitDeadline.Inc()
		}
	}
}

// read starts one target's refit: it clears the target's pending mark and
// reads its window as one step, under s.mu and then the shard lock. A mark
// made before the read coalesced into this refit; a record ingested after
// it counts toward the next one. Ingest calls TryEnqueue only after
// releasing its shard locks, so this lock order has no inverse.
func (s *scheduler) read(as astopo.AS) ([]trace.Attack, uint64, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, as)
	return s.store.readForRefit(as)
}

// Overloaded reports whether the refit backlog has crossed the admission
// watermark — the HTTP layer answers 429 while this holds.
func (s *scheduler) Overloaded() bool {
	return s.lag.Load() > int64(s.cfg.LagWatermark)
}

// Lag returns the current refit backlog (queued + in-flight).
func (s *scheduler) Lag() int64 { return s.lag.Load() }

// Stop terminates the run loop after the in-flight round completes.
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
	defer s.ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.ticker.C:
			s.sweep(monoNow())
		case first := <-s.queue:
			batch := s.collectBatch(first)
			s.refitBatch(batch)
		}
	}
}

// collectBatch drains up to BatchSize-1 more queued targets without
// blocking, so bursty ingest fans out across the workers in one round.
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

// refitBatch fits every target of the round on the worker pool. Each
// worker publishes its target's generation as soon as its fit returns, so
// a finished model never waits for the round's slower fits; the round
// stays the unit of scheduling (the next one starts when every fit of
// this one ends) and releases its lag when it ends. Each target's pending
// mark stays set until its worker reads its window (read), so a target
// still waiting in the round absorbs new marks. A fit that fails
// publishes nothing, and its read still counts: the target queues again
// after RefitEvery more records or on its next record's deadline. The
// whole round is one "refit" trace: a "fit" child per target and a
// "publish" child per published fit (workers open children concurrently).
func (s *scheduler) refitBatch(batch []astopo.AS) {
	root := s.tracer.Start(StageRefit)
	root.SetAttr("targets", strconv.Itoa(len(batch)))

	// Generations are drawn in round order before the fan-out, so the
	// labels a round gets do not depend on worker scheduling.
	gens := make([]uint64, len(batch))
	for i := range gens {
		gens[i] = s.reg.NextGeneration()
	}
	var published atomic.Int64
	_ = parallel.ForEach(len(batch), s.cfg.RefitWorkers, func(i int) error {
		if s.refitOne(root, batch[i], gens[i]) {
			published.Add(1)
		}
		return nil // not-ready targets are routine, not round failures
	})
	root.SetAttr("published", strconv.FormatInt(published.Load(), 10))
	root.End()
	s.lag.Add(-int64(len(batch)))
}

// refitOne reads, fits and publishes one target of a round under the
// round's trace, and records its telemetry. It reports whether a
// generation was published.
func (s *scheduler) refitOne(root *obs.Span, as astopo.AS, gen uint64) bool {
	span := root.Child(StageFit)
	span.SetAttr("as", strconv.FormatUint(uint64(as), 10))
	start := time.Now()
	window, total, stamp := s.read(as)
	tm, err := s.fit(as, window, total, gen, s.cfg)
	if err != nil {
		s.tel.refitErrors.Inc()
		span.SetAttr("outcome", "skipped: "+err.Error())
		span.End()
		return false
	}
	s.tel.refitSeconds.Observe(time.Since(start).Seconds())
	span.SetAttr("outcome", "published")
	span.SetAttr("generation", strconv.FormatUint(tm.Generation, 10))
	span.End()

	pub := root.Child(StagePublish)
	s.reg.Publish([]*TargetModels{tm})
	pub.End()
	if stamp != 0 {
		s.tel.staleness.Observe((monoNow() - stamp).Seconds())
	}
	s.tel.refitsDone.Inc()
	switch {
	case tm.Prov.Refit == refitIncremental:
		s.tel.refitIncremental.Inc()
	case tm.searched:
		s.tel.refitSearches.Inc()
	}
	for _, p := range tm.Prov.History {
		if p.Generation == tm.Generation {
			s.tel.promotions.With(p.To).Inc()
		}
	}
	// A bounded store may have evicted this target while its refit was in
	// flight; publishing it anyway would resurrect a ghost, so drop it
	// again (the eviction hook already dropped the old generation).
	if s.cfg.MaxTargets > 0 && !s.store.Known(as) {
		s.reg.Drop(as)
		s.promo.Drop(as)
	}
	return true
}
