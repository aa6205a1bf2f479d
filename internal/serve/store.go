package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astopo"
	"repro/internal/detect"
	"repro/internal/trace"
)

// Store is the sharded per-target state store: each target network (AS)
// owns a rolling window of its most recent attacks plus ingest counters.
// Targets hash onto a fixed power-of-two shard array; every shard has its
// own mutex, so ingest for different targets contends only 1/shards of the
// time and never blocks the forecast path (which reads the registry's
// snapshot, not the store).
type Store struct {
	shards []storeShard
	mask   uint64
	window int

	// det, when non-nil, runs the streaming detection tier on every
	// accepted record inside ingestLocked — under the same shard lock as
	// the append, so the verdict written onto the stored record is exactly
	// the detector state the record itself produced (score → detect →
	// append ordering). Set once before traffic via AttachDetector.
	det *detect.Detector

	// maxTargets, when positive, bounds the total target count: ingesting a
	// new target over the cap evicts the least-recently-ingested other
	// target in the same shard and calls onEvict with it. Both are set once
	// before traffic via SetMaxTargets.
	maxTargets int
	onEvict    func(astopo.AS)
	count      atomic.Int64  // known targets across all shards
	seq        atomic.Uint64 // global ingest clock stamping targetState.touch
}

type storeShard struct {
	mu      sync.Mutex
	targets map[astopo.AS]*targetState
}

// targetState is one target's mutable ingest state. All access is under
// the owning shard's mutex. The running sums track the current window
// (updated on insert and eviction) so the accuracy tracker's baselines —
// Always-Same and Always-Mean — read in O(1) on the ingest path.
type targetState struct {
	attacks    []trace.Attack // rolling window, chronological
	total      uint64         // all-time ingested (after dedup)
	sinceRefit int            // records since the last completed refit

	magSum  float64 // sum of magnitudes over the current window
	durSum  float64 // sum of durations over the current window
	hourSum float64 // sum of start hours over the current window
	daySum  float64 // sum of start days over the current window

	touch uint64 // Store.seq value of the last accepted ingest (eviction order)

	det *detect.State // streaming detector state; nil until first record with a detector attached

	// bots is the current bot chunk: stored records' Bots are capped
	// regions of it (ownBots), handed out once and never rewritten, so
	// Window and Checkpoint copies stay valid after later inserts.
	bots []astopo.IPv4
}

// botChunk is the bot-IP capacity of one bot chunk.
const botChunk = 128

// ownBots copies b into the target's bot chunk — allocating a fresh chunk
// when the current one cannot hold it — and returns the capacity-capped
// copy. Callers' bot memory (a pooled decoder arena on the binary wire)
// is therefore never aliased by the store.
func (ts *targetState) ownBots(b []astopo.IPv4) []astopo.IPv4 {
	if len(b) == 0 {
		return b[:0:0] // nil stays nil: the JSON image tells null from []
	}
	if cap(ts.bots)-len(ts.bots) < len(b) {
		ts.bots = make([]astopo.IPv4, 0, max(botChunk, len(b)))
	}
	lo := len(ts.bots)
	ts.bots = append(ts.bots, b...)
	return ts.bots[lo:len(ts.bots):len(ts.bots)]
}

func (ts *targetState) addSums(a *trace.Attack) {
	ts.magSum += float64(a.Magnitude())
	ts.durSum += a.DurationSec
	ts.hourSum += float64(a.Hour())
	ts.daySum += float64(a.Day())
}

func (ts *targetState) subSums(a *trace.Attack) {
	ts.magSum -= float64(a.Magnitude())
	ts.durSum -= a.DurationSec
	ts.hourSum -= float64(a.Hour())
	ts.daySum -= float64(a.Day())
}

// PrevStats summarizes a target's window as it stood before one ingest:
// exactly the information the §VII baselines had available when the
// forecast for the arriving attack was made. N == 0 means the target had
// no history (nothing to score against).
type PrevStats struct {
	N         int       // window length before the insert
	LastStart time.Time // most recent attack's start
	LastMag   float64   // Always-Same magnitude
	LastDur   float64   // Always-Same duration
	MeanMag   float64   // Always-Mean magnitude
	MeanDur   float64   // Always-Mean duration
	MeanHour  float64   // Always-Mean start hour
	MeanDay   float64   // Always-Mean start day
}

// AttachDetector installs the streaming detection tier (DESIGN.md §13).
// Call once, before traffic: ingestLocked reads the field without
// synchronization beyond the shard lock it already holds.
func (s *Store) AttachDetector(d *detect.Detector) { s.det = d }

// SetMaxTargets bounds the target count (-max-targets); onEvict fires for
// every evicted target (the service drops its registry entry and promotion
// window there). Call once, before traffic. The hook runs under the shard
// lock of the ingest that triggered the eviction: it must not re-enter the
// store (Registry.Drop and promoTracker.Drop take only their own locks, so
// the shard→registry lock order has no inverse anywhere).
func (s *Store) SetMaxTargets(n int, onEvict func(astopo.AS)) {
	s.maxTargets = n
	s.onEvict = onEvict
}

// Known reports whether the target currently exists in the store.
func (s *Store) Known(as astopo.AS) bool {
	sh := s.shardFor(as)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.targets[as] != nil
}

// Detector returns the attached detector (nil when detection is off).
func (s *Store) Detector() *detect.Detector { return s.det }

// detectOutcome reports what the detect stage did for one record: whether
// it ran, the wall time it took, and the stale flag mirrored into
// ddosd_detect_stale_records_total. The verdict itself is written onto
// the record.
type detectOutcome struct {
	Ran   bool
	Stale bool
	Dur   time.Duration
}

// NewStore builds a store with the given shard count (rounded up to a
// power of two, minimum 1) and per-target window capacity.
func NewStore(shards, window int) *Store {
	n := 1
	for n < shards {
		n <<= 1
	}
	if window < 1 {
		window = 1
	}
	s := &Store{shards: make([]storeShard, n), mask: uint64(n - 1), window: window}
	for i := range s.shards {
		s.shards[i].targets = make(map[astopo.AS]*targetState)
	}
	return s
}

// shardIndex hashes the target AS onto its shard slot (Fibonacci
// multiplicative hash: consecutive AS numbers — the common synthetic
// layout — spread across shards instead of clustering). Exposed
// separately from shardFor so the batched ingest path can group records
// by shard before taking any lock.
func (s *Store) shardIndex(as astopo.AS) int {
	h := uint64(as) * 0x9e3779b97f4a7c15
	return int((h >> 32) & s.mask)
}

func (s *Store) shardFor(as astopo.AS) *storeShard {
	return &s.shards[s.shardIndex(as)]
}

// Ingest folds one attack into its target's window and returns the
// target's records-since-refit count, the window length, and whether the
// record was new (false: a duplicate attack ID already in the window was
// dropped). It is the store's one locked single-record entry point (WAL
// replay); live ingest goes through Service.ingestBatch.
func (s *Store) Ingest(a *trace.Attack) (sinceRefit, windowLen int, accepted bool) {
	sh := s.shardFor(a.TargetAS)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sinceRefit, windowLen, _, _, accepted = s.ingestLocked(sh, a)
	return sinceRefit, windowLen, accepted
}

// ingestLocked folds a into its target's window with sh (the shard
// owning a.TargetAS) already locked — the unit the batched ingest path
// applies repeatedly under one lock acquisition per shard group. prev is
// the pre-append window summary the accuracy tracker scores baselines
// against, captured immediately before the insert, so it reflects exactly
// the history available when the arriving attack was still the future.
// The stored record owns its bot list (a copy in the target's bot chunk),
// so the caller may reuse a's memory as soon as the call returns.
func (s *Store) ingestLocked(sh *storeShard, a *trace.Attack) (sinceRefit, windowLen int, prev PrevStats, det detectOutcome, accepted bool) {
	ts := sh.targets[a.TargetAS]
	if ts == nil {
		ts = &targetState{}
		sh.targets[a.TargetAS] = ts
		if n := s.count.Add(1); s.maxTargets > 0 && n > int64(s.maxTargets) {
			s.evictLocked(sh, a.TargetAS)
		}
	}
	for i := range ts.attacks {
		if ts.attacks[i].ID == a.ID {
			return ts.sinceRefit, len(ts.attacks), prev, det, false
		}
	}
	if n := len(ts.attacks); n > 0 {
		last := &ts.attacks[n-1]
		prev = PrevStats{
			N:         n,
			LastStart: last.Start,
			LastMag:   float64(last.Magnitude()),
			LastDur:   last.DurationSec,
			MeanMag:   ts.magSum / float64(n),
			MeanDur:   ts.durSum / float64(n),
			MeanHour:  ts.hourSum / float64(n),
			MeanDay:   ts.daySum / float64(n),
		}
	}
	// Detect-then-append, still under the shard lock: the verdict written
	// onto the stored record reflects the alerts active the instant this
	// record was folded in. The field is server-authoritative — it is
	// always overwritten, so a client-supplied verdict never survives into
	// the store (or into cross-node checkpoint comparisons).
	a.Verdict = 0
	if s.det != nil {
		t0 := time.Now()
		if ts.det == nil {
			ts.det = s.det.NewState()
		}
		r := s.det.Observe(ts.det, a)
		a.Verdict = r.Verdict
		det = detectOutcome{Ran: true, Stale: r.Stale, Dur: time.Since(t0)}
	}

	// Insert keeping chronological order: records usually arrive in order,
	// so scan from the tail.
	pos := len(ts.attacks)
	for pos > 0 && ts.attacks[pos-1].Start.After(a.Start) {
		pos--
	}
	ts.attacks = append(ts.attacks, trace.Attack{})
	copy(ts.attacks[pos+1:], ts.attacks[pos:])
	ts.attacks[pos] = *a
	ts.attacks[pos].Bots = ts.ownBots(a.Bots)
	ts.addSums(a)
	if len(ts.attacks) > s.window {
		for i := 0; i < len(ts.attacks)-s.window; i++ {
			ts.subSums(&ts.attacks[i])
		}
		ts.attacks = append(ts.attacks[:0], ts.attacks[len(ts.attacks)-s.window:]...)
	}
	ts.total++
	ts.sinceRefit++
	if s.maxTargets > 0 {
		ts.touch = s.seq.Add(1)
	}
	return ts.sinceRefit, len(ts.attacks), prev, det, true
}

// evictLocked removes the least-recently-ingested target in sh other than
// keep, fires the eviction hook, and decrements the global count. Eviction
// is shard-local: the victim is the stalest target sharing the newcomer's
// shard, not a global minimum — O(shard population) under a lock already
// held, and within a constant factor of global LRU for hashed placement.
func (s *Store) evictLocked(sh *storeShard, keep astopo.AS) {
	var victim astopo.AS
	var victimTouch uint64
	found := false
	for as, ts := range sh.targets {
		if as == keep {
			continue
		}
		if !found || ts.touch < victimTouch {
			victim, victimTouch, found = as, ts.touch, true
		}
	}
	if !found {
		return // the newcomer is alone on this shard; the overshoot stands
	}
	delete(sh.targets, victim)
	s.count.Add(-1)
	if s.onEvict != nil {
		s.onEvict(victim)
	}
}

// Window returns a copy of the target's rolling window and its all-time
// ingest count. A nil slice means the target is unknown.
func (s *Store) Window(as astopo.AS) ([]trace.Attack, uint64) {
	sh := s.shardFor(as)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := sh.targets[as]
	if ts == nil {
		return nil, 0
	}
	out := make([]trace.Attack, len(ts.attacks))
	copy(out, ts.attacks)
	return out, ts.total
}

// MarkRefitted resets the target's since-refit counter by the number of
// records the refit consumed (records ingested while the refit ran keep
// counting toward the next one).
func (s *Store) MarkRefitted(as astopo.AS, consumed int) {
	sh := s.shardFor(as)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ts := sh.targets[as]; ts != nil {
		ts.sinceRefit -= consumed
		if ts.sinceRefit < 0 {
			ts.sinceRefit = 0
		}
	}
}

// TargetCheckpoint is one target's durable ingest state: the rolling
// window plus the counters a restart must carry forward. It is the unit
// of the WAL checkpoint file and of lossless store comparison in the
// crash-recovery tests.
type TargetCheckpoint struct {
	AS         astopo.AS      `json:"as"`
	Total      uint64         `json:"total"`
	SinceRefit int            `json:"since_refit"`
	Attacks    []trace.Attack `json:"attacks"`
}

// Checkpoint dumps every target's state, sorted by AS so two stores
// holding the same records serialize byte-identically. Each shard is
// locked only while it is copied.
func (s *Store) Checkpoint() []TargetCheckpoint {
	var out []TargetCheckpoint
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for as, ts := range sh.targets {
			attacks := make([]trace.Attack, len(ts.attacks))
			copy(attacks, ts.attacks)
			out = append(out, TargetCheckpoint{
				AS:         as,
				Total:      ts.total,
				SinceRefit: ts.sinceRefit,
				Attacks:    attacks,
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	return out
}

// Restore loads checkpointed targets wholesale (boot-time recovery,
// before WAL replay applies the tail). Windows longer than the store's
// capacity — a checkpoint taken under a larger -window — keep their most
// recent records; running sums are rebuilt.
func (s *Store) Restore(targets []TargetCheckpoint) {
	for i := range targets {
		tc := &targets[i]
		sh := s.shardFor(tc.AS)
		sh.mu.Lock()
		ts := &targetState{total: tc.Total, sinceRefit: tc.SinceRefit}
		attacks := tc.Attacks
		if len(attacks) > s.window {
			attacks = attacks[len(attacks)-s.window:]
		}
		ts.attacks = make([]trace.Attack, len(attacks))
		copy(ts.attacks, attacks)
		for j := range ts.attacks {
			ts.addSums(&ts.attacks[j])
		}
		if sh.targets[tc.AS] == nil {
			s.count.Add(1)
		}
		if s.maxTargets > 0 {
			ts.touch = s.seq.Add(1)
		}
		sh.targets[tc.AS] = ts
		sh.mu.Unlock()
	}
}

// Targets returns every known target AS in ascending order.
func (s *Store) Targets() []astopo.AS {
	var out []astopo.AS
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for as := range sh.targets {
			out = append(out, as)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of known targets.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.targets)
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the shard count (for /healthz introspection).
func (s *Store) Shards() int { return len(s.shards) }
