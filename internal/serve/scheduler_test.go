package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/trace"
)

// stopSweep stops the scheduler's deadline ticker, so the test drives
// sweep itself with a synthetic clock and a slow runner cannot trip the
// deadline behind its back.
func stopSweep(svc *Service) { svc.sched.ticker.Stop() }

// unreadState reads a target's since-refit count and unread stamp.
func unreadState(svc *Service, as astopo.AS) (int, time.Duration) {
	sh := svc.store.shardFor(as)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := sh.targets[as]
	if ts == nil {
		return -1, 0
	}
	return ts.sinceRefit, ts.unread
}

// publishedTotal is the all-time ingest count the target's published
// generation covers (0 when unpublished).
func publishedTotal(svc *Service, as astopo.AS) uint64 {
	tm, ok := svc.reg.Lookup(as)
	if !ok {
		return 0
	}
	return tm.Total
}

// ingestN ingests attacks[*n : *n+k] one record per call and advances *n.
func ingestN(t *testing.T, svc *Service, attacks []trace.Attack, n *int, k int) {
	t.Helper()
	for ; k > 0; k-- {
		if _, err := ingestOne(svc, &attacks[*n]); err != nil {
			t.Fatal(err)
		}
		*n++
	}
}

// holdFits wraps the refit function so that, while hold is set, every
// fit reports its target on entered and waits for a token on release.
func holdFits(cfg *Config, hold *atomic.Bool, entered chan astopo.AS, release chan struct{}) {
	cfg.WrapFit = func(next FitFunc) FitFunc {
		return func(as astopo.AS, window []trace.Attack, total uint64, gen uint64, c Config) (*TargetModels, error) {
			if hold.Load() {
				entered <- as
				<-release
			}
			return next(as, window, total, gen, c)
		}
	}
}

// TestRefitKeepsRecordsIngestedDuringFit pins the refit-staleness
// contract: records ingested while a refit runs still count toward the
// next refit, because the refit's mark covers only what its window read,
// and fewer than RefitEvery of them queue no second refit.
func TestRefitKeepsRecordsIngestedDuringFit(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	var hold atomic.Bool
	entered := make(chan astopo.AS, 4)
	release := make(chan struct{})
	holdFits(&cfg, &hold, entered, release)
	svc := New(cfg)
	defer svc.Close()
	defer func() { hold.Store(false); close(release) }()
	stopSweep(svc)
	attacks := mkAttacks(as, 0, 32)
	n := 0
	for n < 10 {
		ingestN(t, svc, attacks, &n, 1)
		svc.Flush()
	}
	if got, _ := unreadState(svc, as); got != 0 {
		t.Fatalf("sinceRefit %d after flushed refits, want 0", got)
	}
	refits := svc.tel.refitsDone.Value()

	hold.Store(true)
	ingestN(t, svc, attacks, &n, cfg.RefitEvery) // the last of these queues a refit
	<-entered                                    // the refit has read its window and is held
	const k = 2                                  // fewer than RefitEvery
	ingestN(t, svc, attacks, &n, k)
	hold.Store(false)
	release <- struct{}{}
	svc.Flush()
	if got, _ := unreadState(svc, as); got != k {
		t.Fatalf("sinceRefit %d after the held refit, want the %d records ingested during it", got, k)
	}
	if got := svc.tel.refitsDone.Value() - refits; got != 1 {
		t.Fatalf("%d refits after the held one was released, want 1: the %d records ingested during it queued another", got, k)
	}
}

// TestStaleDeadlineRefitsSlowTarget: a published target that gets fewer
// than RefitEvery records is refit once its oldest unread record is
// staleAfter old, and not before.
func TestStaleDeadlineRefitsSlowTarget(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	svc := New(cfg)
	defer svc.Close()
	stopSweep(svc)
	attacks := mkAttacks(as, 0, 16)
	n := 0
	ingestN(t, svc, attacks, &n, cfg.MinWindow)
	svc.Flush()
	if got := publishedTotal(svc, as); got != uint64(cfg.MinWindow) {
		t.Fatalf("first fit covers %d records, want %d", got, cfg.MinWindow)
	}

	ingestN(t, svc, attacks, &n, cfg.RefitEvery-1) // the count trigger stays quiet
	svc.Flush()
	since, stamp := unreadState(svc, as)
	if since != cfg.RefitEvery-1 || stamp == 0 {
		t.Fatalf("sinceRefit %d, stamp %v after %d records; want the count and a stamp", since, stamp, cfg.RefitEvery-1)
	}
	svc.sched.sweep(stamp + staleAfter - 1)
	svc.Flush()
	if got := publishedTotal(svc, as); got != uint64(cfg.MinWindow) {
		t.Fatalf("refit before the deadline: published total %d", got)
	}
	svc.sched.sweep(stamp + staleAfter)
	svc.Flush()
	if got := publishedTotal(svc, as); got != uint64(n) {
		t.Fatalf("published total %d after the deadline passed, want %d", got, n)
	}
	if since, stamp := unreadState(svc, as); since != 0 || stamp != 0 {
		t.Fatalf("sinceRefit %d, stamp %v after the deadline refit; want both cleared", since, stamp)
	}
	if got := svc.tel.refitDeadline.Value(); got != 1 {
		t.Fatalf("ddosd_refit_deadline_total %d, want 1", got)
	}
}

// TestStaleDeadlineRetriesDroppedMark: a mark a full queue drops is
// retried by the sweep, with no further ingest.
func TestStaleDeadlineRetriesDroppedMark(t *testing.T) {
	const blocker, slow = astopo.AS(64512), astopo.AS(64513)
	cfg := testConfig()
	cfg.QueueDepth = 1
	cfg.LagWatermark = 100 // drops, not shedding, are under test
	cfg.BatchSize = 1
	var hold atomic.Bool
	entered := make(chan astopo.AS, 4)
	release := make(chan struct{})
	holdFits(&cfg, &hold, entered, release)
	svc := New(cfg)
	defer svc.Close()
	defer func() { hold.Store(false); close(release) }()
	stopSweep(svc)
	bAttacks, sAttacks := mkAttacks(blocker, 0, 32), mkAttacks(slow, 1000, 32)
	nb, ns := 0, 0
	ingestN(t, svc, bAttacks, &nb, cfg.MinWindow)
	svc.Flush()
	ingestN(t, svc, sAttacks, &ns, cfg.MinWindow)
	svc.Flush()

	// Hold the blocker's refit and fill the one queue slot with its next
	// mark, so the slow target's mark is dropped.
	hold.Store(true)
	ingestN(t, svc, bAttacks, &nb, cfg.RefitEvery)
	<-entered
	ingestN(t, svc, bAttacks, &nb, cfg.RefitEvery)
	ingestN(t, svc, sAttacks, &ns, cfg.RefitEvery)
	if got := svc.tel.refitsDropped.Value(); got != 1 {
		t.Fatalf("%d marks dropped, want the slow target's one", got)
	}
	hold.Store(false)
	release <- struct{}{}
	svc.Flush()
	if got := publishedTotal(svc, slow); got != uint64(cfg.MinWindow) {
		t.Fatalf("slow target refit without a mark: published total %d", got)
	}

	_, stamp := unreadState(svc, slow)
	svc.sched.sweep(stamp + staleAfter)
	svc.Flush()
	if got := publishedTotal(svc, slow); got != uint64(ns) {
		t.Fatalf("published total %d after the sweep, want %d", got, ns)
	}
	if got := svc.tel.refitDeadline.Value(); got != 1 {
		t.Fatalf("ddosd_refit_deadline_total %d, want 1 (the blocker had nothing unread)", got)
	}
}

// TestStaleReadIsTheMark: records ingested before a refit reads its
// window coalesce into that refit, even while the target waits in a
// running batch; records ingested after the read count toward the next.
func TestStaleReadIsTheMark(t *testing.T) {
	const blocker, first, second = astopo.AS(64512), astopo.AS(64513), astopo.AS(64514)
	cfg := testConfig()
	cfg.RefitWorkers = 1 // a batch fits its targets one after another
	var hold atomic.Bool
	entered := make(chan astopo.AS, 4)
	release := make(chan struct{})
	holdFits(&cfg, &hold, entered, release)
	var mu sync.Mutex
	fits := map[astopo.AS]int{}
	wrapped := cfg.WrapFit
	cfg.WrapFit = func(next FitFunc) FitFunc {
		inner := wrapped(next)
		return func(as astopo.AS, window []trace.Attack, total uint64, gen uint64, c Config) (*TargetModels, error) {
			mu.Lock()
			fits[as]++
			mu.Unlock()
			return inner(as, window, total, gen, c)
		}
	}
	svc := New(cfg)
	defer svc.Close()
	defer func() { hold.Store(false); close(release) }()
	stopSweep(svc)
	attacks := map[astopo.AS][]trace.Attack{
		blocker: mkAttacks(blocker, 0, 64),
		first:   mkAttacks(first, 1000, 64),
		second:  mkAttacks(second, 2000, 64),
	}
	ns := map[astopo.AS]int{}
	ingest := func(as astopo.AS, k int) {
		n := ns[as]
		ingestN(t, svc, attacks[as], &n, k)
		ns[as] = n
	}
	for _, as := range []astopo.AS{blocker, first, second} {
		ingest(as, cfg.MinWindow)
		svc.Flush()
	}
	mu.Lock()
	clear(fits)
	mu.Unlock()

	// While the blocker's refit is held, mark first and second: the next
	// batch is [first, second], and second waits behind first's held fit.
	hold.Store(true)
	ingest(blocker, cfg.RefitEvery)
	if as := <-entered; as != blocker {
		t.Fatalf("held refit of AS%d, want the blocker", as)
	}
	ingest(first, cfg.RefitEvery)
	ingest(second, cfg.RefitEvery)
	release <- struct{}{}
	if as := <-entered; as != first {
		t.Fatalf("held refit of AS%d, want AS%d", as, first)
	}
	// second has not read its window yet: these records, enough for a
	// count mark, coalesce into its pending refit.
	ingest(second, cfg.RefitEvery)
	if got := svc.sched.Lag(); got != 2 {
		t.Fatalf("refit lag %d with second still unread, want 2: its records queued a second refit", got)
	}
	release <- struct{}{}
	if as := <-entered; as != second {
		t.Fatalf("held refit of AS%d, want AS%d", as, second)
	}
	// second's refit has read everything so far: new records count from
	// zero, and queue the next refit only at RefitEvery.
	ingest(second, cfg.RefitEvery-1)
	if since, _ := unreadState(svc, second); since != cfg.RefitEvery-1 || svc.sched.Lag() != 2 {
		t.Fatalf("after the read: sinceRefit %d, lag %d; want %d and 2", since, svc.sched.Lag(), cfg.RefitEvery-1)
	}
	ingest(second, 1)
	if got := svc.sched.Lag(); got != 3 {
		t.Fatalf("lag %d after RefitEvery records past the read, want 3", got)
	}
	hold.Store(false)
	release <- struct{}{}
	svc.Flush()

	mu.Lock()
	defer mu.Unlock()
	if fits[blocker] != 1 || fits[first] != 1 || fits[second] != 2 {
		t.Fatalf("fits %v, want blocker 1, first 1, second 2", fits)
	}
	if got := publishedTotal(svc, second); got != uint64(ns[second]) {
		t.Fatalf("second's published total %d, want %d", got, ns[second])
	}
}

// TestStalePublishEachFitWhenItEnds: a round publishes each target's
// generation as soon as its fit ends. With one worker the round [A, B]
// fits A, then B; while B's fit is held, A's new generation is already
// served and counted, and B's publish then swaps the snapshot once more,
// with the next generation label.
func TestStalePublishEachFitWhenItEnds(t *testing.T) {
	const blocker, a, b = astopo.AS(64512), astopo.AS(64513), astopo.AS(64514)
	cfg := testConfig()
	cfg.RefitWorkers = 1 // a round fits its targets one after another
	var hold atomic.Bool
	entered := make(chan astopo.AS, 4)
	release := make(chan struct{})
	holdFits(&cfg, &hold, entered, release)
	svc := New(cfg)
	defer svc.Close()
	defer func() { hold.Store(false); close(release) }()
	stopSweep(svc)
	attacks := map[astopo.AS][]trace.Attack{
		blocker: mkAttacks(blocker, 0, 32),
		a:       mkAttacks(a, 1000, 32),
		b:       mkAttacks(b, 2000, 32),
	}
	ns := map[astopo.AS]int{}
	ingest := func(as astopo.AS, k int) {
		n := ns[as]
		ingestN(t, svc, attacks[as], &n, k)
		ns[as] = n
	}
	for _, as := range []astopo.AS{blocker, a, b} {
		ingest(as, cfg.MinWindow)
		svc.Flush()
	}

	// While the blocker's refit is held, mark A and B: the next round is
	// [A, B].
	hold.Store(true)
	ingest(blocker, cfg.RefitEvery)
	if as := <-entered; as != blocker {
		t.Fatalf("held refit of AS%d, want the blocker", as)
	}
	ingest(a, cfg.RefitEvery)
	ingest(b, cfg.RefitEvery)
	release <- struct{}{}
	if as := <-entered; as != a {
		t.Fatalf("held refit of AS%d, want AS%d", as, a)
	}
	version, done := svc.reg.Version(), svc.tel.refitsDone.Value()
	release <- struct{}{}
	if as := <-entered; as != b {
		t.Fatalf("held refit of AS%d, want AS%d", as, b)
	}

	// B's fit is held: A's generation is served, and counted, already.
	fc, err := svc.reg.Forecast(a)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Observations != uint64(ns[a]) || fc.SnapshotVersion != version+1 {
		t.Fatalf("while B's fit is held, A serves %d observations at version %d; want %d at %d",
			fc.Observations, fc.SnapshotVersion, ns[a], version+1)
	}
	if got := svc.tel.refitsDone.Value() - done; got != 1 {
		t.Fatalf("%d refits counted while B's fit is held, want A's 1", got)
	}
	if got := publishedTotal(svc, b); got != uint64(cfg.MinWindow) {
		t.Fatalf("B's published total %d before its fit ended, want %d", got, cfg.MinWindow)
	}
	hold.Store(false)
	release <- struct{}{}
	svc.Flush()

	if got := svc.reg.Version(); got != version+2 {
		t.Fatalf("version %d after B published, want %d", got, version+2)
	}
	tmA, _ := svc.reg.Lookup(a)
	tmB, _ := svc.reg.Lookup(b)
	if tmB.Total != uint64(ns[b]) || tmB.Generation != tmA.Generation+1 {
		t.Fatalf("B serves total %d generation %d, want %d and A's generation %d + 1",
			tmB.Total, tmB.Generation, ns[b], tmA.Generation)
	}
}

// TestFailedRoundSwapsNoSnapshot: a round whose every fit fails publishes
// nothing, so the snapshot version does not move.
func TestFailedRoundSwapsNoSnapshot(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	cfg.WrapFit = func(FitFunc) FitFunc {
		return func(astopo.AS, []trace.Attack, uint64, uint64, Config) (*TargetModels, error) {
			return nil, errors.New("injected fit failure")
		}
	}
	svc := New(cfg)
	defer svc.Close()
	attacks := mkAttacks(as, 0, cfg.MinWindow)
	n := 0
	ingestN(t, svc, attacks, &n, cfg.MinWindow)
	svc.Flush()
	if got := svc.tel.refitErrors.Value(); got == 0 {
		t.Fatal("no fit ran")
	}
	if got := svc.reg.Version(); got != 0 {
		t.Fatalf("snapshot version %d after only failed fits, want 0", got)
	}
}

// TestStalenessObservedOncePerPublish: each published target with an
// unread record adds one ddosd_forecast_staleness_seconds observation, a
// refit that read nothing new adds none, and a target the deadline
// queues counts once in ddosd_refit_deadline_total however often the
// sweep sees it.
func TestStalenessObservedOncePerPublish(t *testing.T) {
	targets := []astopo.AS{64512, 64513, 64514}
	svc := New(testConfig())
	defer svc.Close()
	stopSweep(svc)
	for i, as := range targets {
		attacks := mkAttacks(as, 1000*i, 8)
		for j := range attacks {
			svc.store.Ingest(&attacks[j])
		}
	}
	svc.sched.lag.Add(int64(len(targets))) // what TryEnqueue counts and refitBatch releases
	svc.sched.refitBatch(targets)
	if got, done := svc.tel.staleness.Count(), svc.tel.refitsDone.Value(); got != 3 || done != 3 {
		t.Fatalf("%d staleness observations in %d refits, want 3 in 3", got, done)
	}
	svc.sched.lag.Add(1)
	svc.sched.refitBatch(targets[:1])
	if got, done := svc.tel.staleness.Count(), svc.tel.refitsDone.Value(); got != 3 || done != 4 {
		t.Fatalf("%d staleness observations in %d refits, want 3 in 4: the last refit read nothing new", got, done)
	}

	more := mkAttacks(targets[1], 5000, 1)
	more[0].Start = more[0].Start.AddDate(1, 0, 0)
	svc.store.Ingest(&more[0])
	_, stamp := unreadState(svc, targets[1])
	svc.sched.sweep(stamp + staleAfter)
	svc.sched.sweep(stamp + staleAfter)
	svc.Flush()
	if got := svc.tel.refitDeadline.Value(); got != 1 {
		t.Fatalf("ddosd_refit_deadline_total %d after two sweeps, want 1", got)
	}
	if got := svc.tel.staleness.Count(); got != 4 {
		t.Fatalf("%d staleness observations, want 4", got)
	}
}

// TestStaleStatuszSection: /statusz refit counts the targets past the
// deadline and lists the oldest unread stamps first, with their unread
// record counts; targets below MinWindow and fully read ones are absent.
func TestStaleStatuszSection(t *testing.T) {
	cfg := testConfig()
	svc := New(cfg)
	defer svc.Close()
	stopSweep(svc)
	ingest := func(as astopo.AS, idBase, k int) {
		attacks := mkAttacks(as, idBase, k)
		for i := range attacks {
			svc.store.Ingest(&attacks[i])
		}
	}
	ingest(64512, 0, 8)
	time.Sleep(2 * time.Millisecond) // distinct stamps on a coarse clock
	ingest(64513, 1000, 7)
	ingest(64514, 2000, cfg.MinWindow-1) // not ready: never stale
	ingest(64515, 3000, 8)
	svc.sched.lag.Add(1)
	svc.sched.refitBatch([]astopo.AS{64515}) // fully read
	_, oldest := unreadState(svc, 64512)
	_, newer := unreadState(svc, 64513)

	rs := svc.refitStatus(newer + staleAfter - 1)
	if rs.StaleTargets != 1 || len(rs.Stalest) != 2 {
		t.Fatalf("refit section %+v, want 1 stale target of 2 listed", rs)
	}
	if got := rs.Stalest[0]; got.AS != 64512 || got.Unread != 8 || got.AgeSec != (newer+staleAfter-1-oldest).Seconds() {
		t.Fatalf("stalest %+v, want AS64512 with 8 unread records first", got)
	}
	if got := rs.Stalest[1]; got.AS != 64513 || got.Unread != 7 {
		t.Fatalf("second stalest %+v, want AS64513 with 7 unread records", got)
	}
	if rs := svc.refitStatus(newer + staleAfter); rs.StaleTargets != 2 {
		t.Fatalf("%d stale targets once both passed the deadline, want 2", rs.StaleTargets)
	}
}

// TestRefitFullReasonCounted: ddosd_refit_full_total counts each full
// refit once, under the reason the incremental path declined, and the
// reasons plus the incremental refits add up to every refit.
func TestRefitFullReasonCounted(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	cfg.IncrementalRefit = true
	svc := New(cfg)
	defer svc.Close()
	stopSweep(svc)
	attacks := mkAttacks(as, 0, 8)
	for i := range attacks {
		svc.store.Ingest(&attacks[i])
	}
	refit := func() {
		svc.sched.lag.Add(1)
		svc.sched.refitBatch([]astopo.AS{as})
	}
	refit() // no generation yet
	refit() // no new records to fold in
	for reason, want := range map[string]uint64{fullFirstFit: 1, fullTail: 1} {
		if got := svc.tel.refitFull.With(reason).Value(); got != want {
			t.Errorf("ddosd_refit_full_total{reason=%q} = %d, want %d", reason, got, want)
		}
	}
	var full uint64
	for _, reason := range fullReasons() {
		full += svc.tel.refitFull.With(reason).Value()
	}
	if done, inc := svc.tel.refitsDone.Value(), svc.tel.refitIncremental.Value(); full+inc != done {
		t.Fatalf("%d full + %d incremental refits, want %d", full, inc, done)
	}
}

// TestIncrementalDeclineReasons: every way the incremental path declines
// a window carries its ddosd_refit_full_total reason as data.
func TestIncrementalDeclineReasons(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig().withDefaults()
	cfg.DriftRatio = 0 // eligibility first; the drift case sets its own
	base := mkAttacks(as, 0, 40)
	prev, err := fitTarget(nil, as, base[:36], 36, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := fitTarget(nil, as, base[:36], 36, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capped.Prov.IncrSinceFull = cfg.FullRefitEvery - 1
	outOfOrder := append(append(append([]trace.Attack{}, base[:11]...), base[10]), base[11:39]...)
	outOfOrder[11].ID, outOfOrder[11].Start = 9999, base[10].Start.Add(time.Hour)
	relabeled := append([]trace.Attack{}, base...)
	for i := 0; i < 30; i++ {
		relabeled[i].Family = "Nitol"
	}
	drifting := cfg
	drifting.DriftRatio = 1e-12

	for _, tc := range []struct {
		name   string
		prev   *TargetModels
		window []trace.Attack
		total  uint64
		cfg    Config
		want   string
	}{
		{"cap", capped, base, 40, cfg, fullCap},
		{"no new records", prev, base[:36], 36, cfg, fullTail},
		{"tail over half the window", prev, base, 36 + 21, cfg, fullTail},
		{"out of order", prev, outOfOrder, 40, cfg, fullOutOfOrder},
		{"family changed", prev, relabeled, 40, cfg, fullFamilyChanged},
		{"drift", prev, base, 40, drifting, "drift_"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fitTargetIncremental(tc.prev, as, tc.window, tc.total, 2, tc.cfg)
			if err == nil {
				t.Fatal("incremental refit accepted the window")
			}
			got := fullReasonOf(err)
			if !strings.HasPrefix(got, tc.want) {
				t.Fatalf("reason %q (%v), want %q", got, err, tc.want)
			}
			known := false
			for _, r := range fullReasons() {
				known = known || r == got
			}
			if !known {
				t.Fatalf("reason %q is not pre-created", got)
			}
		})
	}
}
