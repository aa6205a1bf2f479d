package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// Vectorized ingest (DESIGN.md §11): ingestBatch is the one ingest
// pipeline — validate, model lookup, shard lock, detect + append, WAL
// durability before the ack, online accuracy scoring, refit scheduling.
// Every caller goes through it: both /ingest wires (one call per
// request), IngestBatch, Service.Ingest (a batch of one), and cluster
// replication (IngestBatchReplica). Per-record costs are amortized:
//
//   - records are grouped by store shard (counting sort, stable so each
//     target sees its records in arrival order) and every shard lock is
//     taken once per batch instead of once per record;
//   - all accepted frames reach the WAL through one AppendBatch call —
//     one WAL lock, one buffered write, one fsync;
//   - every piece of per-record scratch state lives in a pooled arena,
//     so the path performs amortized zero allocations per record
//     (pinned by TestIngestBatchZeroAlloc / BenchmarkIngestBatch);
//   - each stage histogram observes once per call, whatever the batch
//     size (per-record cost: stage sum over the record counters).
//
// Ordering guarantees are identical to applying the records one at a
// time in batch order: registry lookups happen before any store insert
// (score-then-append — the accuracy tracker judges the forecast that
// existed while the arrival was still the future), PrevStats are
// captured per record under the shard lock immediately before its
// insert, and the store-insert + WAL-append pair sits under the shared
// side of the checkpoint barrier so a concurrent checkpoint sees each
// record on exactly one side of the cut.

// BatchResult counts what one IngestBatch call committed.
type BatchResult struct {
	Ingested   int // new records applied to the store
	Duplicates int // records dropped as windowed-attack-ID duplicates
}

// BatchRecordError reports the first record IngestBatch rejected as
// invalid. Index is the record's 1-based position in the batch; records
// before it were applied (counted in the accompanying BatchResult),
// records at and after it were not.
type BatchRecordError struct {
	Index int
	Err   error
}

func (e *BatchRecordError) Error() string {
	return fmt.Sprintf("record %d: %v", e.Index, e.Err)
}

func (e *BatchRecordError) Unwrap() error { return e.Err }

// batchRec is one record's per-batch scratch state.
type batchRec struct {
	tm        *TargetModels
	prev      PrevStats
	det       detectOutcome
	shard     int
	since     int
	windowLen int
	accepted  bool
	published bool
}

// batchScratch is the pooled arena behind IngestBatch: reused across
// batches so the hot path allocates nothing once warm.
type batchScratch struct {
	recs     []batchRec
	counts   []int    // per-shard bucket offsets for the counting sort
	order    []int    // record indices grouped by shard, arrival-stable
	payloads [][]byte // accepted records' WAL frames, arrival order
	enc      []byte   // arena for self-encoded payloads (nil payload fn)
	encOffs  []int
}

var batchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// IngestBatch admits records as one vectorized operation. payload, when
// non-nil, returns record i's pre-encoded binary WAL frame (the zero
// re-serialization path: the HTTP layer passes BatchDecoder.Payload);
// when nil the service encodes accepted records itself.
//
// Error semantics: ErrShedding means nothing was applied; ErrNotDurable
// means the counted records are in memory but the batch's WAL append
// failed, so the client must retry (dedup absorbs the replay); a
// *BatchRecordError means everything before the named record was applied
// and nothing at or after it was.
func (s *Service) IngestBatch(records []trace.Attack, payload func(i int) []byte) (BatchResult, error) {
	res, _, err := s.ingestBatch(records, payload, true)
	return res, err
}

// ingestBatch is the shared body. Shedding is decided once per call;
// shed=false is the replication-apply path (IngestBatchReplica): a
// follower keeping warm must not be turned away by its own refit backlog.
func (s *Service) ingestBatch(records []trace.Attack, payload func(i int) []byte, shed bool) (BatchResult, ingestStageTimes, error) {
	var res BatchResult
	var st ingestStageTimes
	if shed && s.sched.Overloaded() {
		s.tel.ingestShed.Inc()
		return res, st, ErrShedding
	}
	// Validate up front and apply only the prefix before the first bad
	// record, so the reported index tells the client exactly where the
	// batch stopped.
	n := len(records)
	bad := -1
	var badErr error
	for i := range records {
		if err := ValidateRecord(&records[i]); err != nil {
			bad, badErr, n = i, err, i
			break
		}
	}
	if n == 0 {
		if bad >= 0 {
			return res, st, &BatchRecordError{Index: 1, Err: badErr}
		}
		return res, st, nil
	}

	b := batchPool.Get().(*batchScratch)
	defer func() {
		for i := range b.recs {
			b.recs[i].tm = nil // don't pin model snapshots in the pool
		}
		batchPool.Put(b)
	}()
	if cap(b.recs) < n {
		b.recs = make([]batchRec, n)
	}
	b.recs = b.recs[:n]

	// Model lookup for every record before any store insert: the
	// score-then-append ordering, batched.
	for i := 0; i < n; i++ {
		b.recs[i].tm, b.recs[i].published = s.reg.Lookup(records[i].TargetAS)
		b.recs[i].shard = s.store.shardIndex(records[i].TargetAS)
	}

	// Stable counting sort of record indices by shard: each shard lock is
	// taken once, and a target's records apply in arrival order.
	shards := len(s.store.shards)
	if cap(b.counts) < shards {
		b.counts = make([]int, shards)
	}
	b.counts = b.counts[:shards]
	for i := range b.counts {
		b.counts[i] = 0
	}
	for i := 0; i < n; i++ {
		b.counts[b.recs[i].shard]++
	}
	sum := 0
	for i := range b.counts {
		c := b.counts[i]
		b.counts[i] = sum
		sum += c
	}
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	b.order = b.order[:n]
	for i := 0; i < n; i++ {
		sh := b.recs[i].shard
		b.order[b.counts[sh]] = i
		b.counts[sh]++
	}

	w := s.walRef.Load()
	if w != nil {
		s.walMu.RLock()
	}
	t0 := time.Now()
	for lo := 0; lo < n; {
		shardIdx := b.recs[b.order[lo]].shard
		hi := lo
		for hi < n && b.recs[b.order[hi]].shard == shardIdx {
			hi++
		}
		sh := &s.store.shards[shardIdx]
		sh.mu.Lock()
		for _, i := range b.order[lo:hi] {
			r := &b.recs[i]
			r.since, r.windowLen, r.prev, r.det, r.accepted = s.store.ingestLocked(sh, &records[i])
		}
		sh.mu.Unlock()
		lo = hi
	}
	if s.store.det != nil {
		var detRan, detStale uint64
		for i := 0; i < n; i++ {
			if d := &b.recs[i].det; d.Ran {
				detRan++
				if d.Stale {
					detStale++
				}
				st.Detect += d.Dur
			}
		}
		s.tel.detRecords.Add(detRan)
		s.tel.detStale.Add(detStale)
		s.tel.observeStage(StageDetect, st.Detect.Seconds())
	}
	st.Append = time.Since(t0) - st.Detect
	s.tel.observeStage(StageAppend, st.Append.Seconds())

	var walErr error
	if w != nil {
		b.payloads = b.payloads[:0]
		if payload != nil {
			for i := 0; i < n; i++ {
				if b.recs[i].accepted {
					b.payloads = append(b.payloads, payload(i))
				}
			}
		} else {
			// Self-encode into the arena; subslice after it stops growing.
			b.enc = b.enc[:0]
			b.encOffs = append(b.encOffs[:0], 0)
			for i := 0; i < n && walErr == nil; i++ {
				if !b.recs[i].accepted {
					continue
				}
				b.enc, walErr = trace.AppendRecord(b.enc, &records[i])
				b.encOffs = append(b.encOffs, len(b.enc))
			}
			for j := 0; j+1 < len(b.encOffs); j++ {
				b.payloads = append(b.payloads, b.enc[b.encOffs[j]:b.encOffs[j+1]])
			}
		}
		if walErr == nil && len(b.payloads) > 0 {
			t := time.Now()
			walErr = s.appendWALBatch(w, b.payloads)
			st.WAL = time.Since(t)
			s.tel.observeStage(StageWAL, st.WAL.Seconds())
			s.tel.walAppendSecs.Observe(st.WAL.Seconds())
		}
	}
	if w != nil {
		s.walMu.RUnlock()
	}

	for i := 0; i < n; i++ {
		if b.recs[i].accepted {
			res.Ingested++
		} else {
			res.Duplicates++
		}
	}
	s.tel.ingestRecords.Add(uint64(res.Ingested))
	s.tel.ingestDups.Add(uint64(res.Duplicates))
	if walErr != nil {
		// Applied in memory but not persisted: fail the ack so the client
		// retries the batch; the dedup window absorbs the replay.
		s.tel.walAppendErrors.Inc()
		return res, st, fmt.Errorf("%w: %w", ErrNotDurable, walErr)
	}

	// Score only in-order, non-first arrivals: the first record has no
	// history to forecast from, and a backfilled out-of-order record was
	// never "the next attack" any forecast claimed to predict.
	t1 := time.Now()
	for i := 0; i < n; i++ {
		r := &b.recs[i]
		if !r.accepted {
			continue
		}
		if r.prev.N > 0 && !records[i].Start.Before(r.prev.LastStart) {
			s.scoreArrival(r.tm, r.published, r.prev, &records[i])
		}
	}
	st.Score = time.Since(t1)
	s.tel.observeStage(StageScore, st.Score.Seconds())

	t2 := time.Now()
	for i := 0; i < n; i++ {
		r := &b.recs[i]
		if !r.accepted || r.windowLen < s.cfg.MinWindow {
			continue
		}
		if r.since >= s.cfg.RefitEvery || !r.published {
			s.sched.TryEnqueue(records[i].TargetAS)
		}
	}
	st.Schedule = time.Since(t2)
	s.tel.observeStage(StageSchedule, st.Schedule.Seconds())

	if bad >= 0 {
		return res, st, &BatchRecordError{Index: bad + 1, Err: badErr}
	}
	return res, st, nil
}
