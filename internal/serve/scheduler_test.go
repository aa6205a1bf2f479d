package serve

import (
	"sync/atomic"
	"testing"

	"repro/internal/astopo"
	"repro/internal/trace"
)

// TestRefitKeepsRecordsIngestedDuringFit pins the refit-staleness
// contract: records ingested while a refit runs still count toward the
// next refit, because the refit's mark covers only what its window read.
func TestRefitKeepsRecordsIngestedDuringFit(t *testing.T) {
	const as = astopo.AS(64512)
	cfg := testConfig()
	var hold atomic.Bool
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg.WrapFit = func(next FitFunc) FitFunc {
		return func(as astopo.AS, window []trace.Attack, total uint64, gen uint64, c Config) (*TargetModels, error) {
			if hold.Load() {
				entered <- struct{}{}
				<-release
			}
			return next(as, window, total, gen, c)
		}
	}
	svc := New(cfg)
	defer svc.Close()
	defer func() { hold.Store(false); close(release) }()
	sinceRefit := func() int {
		for _, tc := range svc.Store().Checkpoint() {
			if tc.AS == as {
				return tc.SinceRefit
			}
		}
		return -1
	}
	attacks := mkAttacks(as, 0, 32)
	n := 0
	ingest := func(k int) {
		for ; k > 0; k-- {
			if _, err := svc.Ingest(&attacks[n]); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for n < 10 {
		ingest(1)
		svc.Flush()
	}
	if got := sinceRefit(); got != 0 {
		t.Fatalf("sinceRefit %d after flushed refits, want 0", got)
	}

	hold.Store(true)
	ingest(cfg.RefitEvery) // the last of these queues a refit
	<-entered              // the refit has read its window and is held
	const k = 2            // fewer than RefitEvery
	ingest(k)
	release <- struct{}{}
	// The k records re-queued the target while the refit ran; hold that
	// second refit too and read the count the first refit's mark left.
	<-entered
	if got := sinceRefit(); got != k {
		t.Fatalf("sinceRefit %d after the held refit, want the %d records ingested during it", got, k)
	}
}
