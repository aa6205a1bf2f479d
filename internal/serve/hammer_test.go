package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astopo"
)

// TestHammerConcurrentIngestForecast drives ingest, forecast, and snapshot
// persistence concurrently while the background scheduler refits, pinning
// two acceptance criteria under -race: zero data races on the hot paths,
// and forecast consistency during refits — every reader sees a fully
// published snapshot (monotone version, matching generation) and never a
// half-swapped one.
func TestHammerConcurrentIngestForecast(t *testing.T) {
	cfg := testConfig()
	cfg.RefitEvery = 2 // maximize swap frequency under load
	cfg.QueueDepth = 1024
	svc := New(cfg)
	defer svc.Close()

	const (
		writers       = 4
		readers       = 4
		targetsPerWkr = 2
		recordsPerTgt = 60
	)
	var (
		wg       sync.WaitGroup
		ingested atomic.Int64
		served   atomic.Int64
	)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < targetsPerWkr; k++ {
				as := astopo.AS(64512 + w*targetsPerWkr + k)
				attacks := mkAttacks(as, int(as)*1000, recordsPerTgt)
				for i := range attacks {
					for {
						_, err := ingestOne(svc, &attacks[i])
						if errors.Is(err, ErrShedding) {
							time.Sleep(time.Millisecond)
							continue
						}
						if err != nil {
							t.Errorf("ingest AS%d: %v", as, err)
							return
						}
						ingested.Add(1)
						break
					}
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastVersion uint64
			lastGen := make(map[astopo.AS]uint64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				as := astopo.AS(64512 + r%(writers*targetsPerWkr))
				fc, err := svc.Forecast(as)
				if err != nil {
					continue // not yet published
				}
				served.Add(1)
				if fc.SnapshotVersion < lastVersion {
					t.Errorf("snapshot version went backwards: %d -> %d", lastVersion, fc.SnapshotVersion)
					return
				}
				lastVersion = fc.SnapshotVersion
				if g := lastGen[as]; fc.ModelGeneration < g {
					t.Errorf("AS%d model generation went backwards: %d -> %d", as, g, fc.ModelGeneration)
					return
				}
				lastGen[as] = fc.ModelGeneration
				if fc.TargetAS != as || fc.Hour < 0 || fc.Hour >= 24 || fc.Day < 1 || fc.Day > 31 {
					t.Errorf("inconsistent forecast under load: %+v", fc)
					return
				}
			}
		}(r)
	}

	// One goroutine snapshots the registry concurrently (the shutdown path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.Registry().WriteSnapshot(discard{}); err != nil {
				t.Errorf("snapshot under load: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Wait for the writers, then let readers observe the final state.
	done := make(chan struct{})
	go func() {
		for ingested.Load() < int64(writers*targetsPerWkr*recordsPerTgt) && !t.Failed() {
			time.Sleep(time.Millisecond)
		}
		svc.Flush()
		close(done)
	}()
	select {
	case <-done:
		// Writers are done and all refits published; give readers a beat to
		// hammer the final snapshot before stopping them.
		time.Sleep(50 * time.Millisecond)
	case <-time.After(30 * time.Second):
		t.Error("hammer timed out")
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if served.Load() == 0 {
		t.Fatal("no forecasts served during the hammer")
	}
	for as := astopo.AS(64512); as < astopo.AS(64512+writers*targetsPerWkr); as++ {
		if _, err := svc.Forecast(as); err != nil {
			t.Errorf("AS%d unserved after hammer: %v", as, err)
		}
	}
}

// discard is an io.Writer black hole (io.Discard allocates interface
// conversions in tight loops; this keeps the hammer lean).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
