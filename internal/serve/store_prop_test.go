package serve

// Property tests for the sharded store: whatever interleaving concurrent
// ingesters produce across shards, each target's window must come out
// chronological, duplicate-free, and lossless (every unique record is
// either in the window or was evicted by capacity — never silently
// dropped, never double-counted).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// propRecord generates the i-th record for a target: unique ID, strictly
// increasing timestamps in generation order.
func propRecord(as astopo.AS, i int) trace.Attack {
	return trace.Attack{
		ID:          int(as)*100000 + i,
		Family:      "prop",
		Start:       time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		DurationSec: 60,
		TargetAS:    as,
		TargetIP:    astopo.IPv4(uint32(as)),
		Bots:        []astopo.IPv4{1},
	}
}

func TestStorePropertiesUnderInterleaving(t *testing.T) {
	cases := []struct {
		name       string
		shards     int
		window     int
		targets    int
		perTarget  int
		goroutines int
		shuffle    bool // scramble global submission order
		dupes      bool // resubmit every record once (needs perTarget <= window)
	}{
		{name: "in-order fits window", shards: 4, window: 64, targets: 8, perTarget: 40, goroutines: 8},
		{name: "in-order overflows window", shards: 4, window: 16, targets: 8, perTarget: 120, goroutines: 8},
		{name: "shuffled fits window", shards: 8, window: 128, targets: 16, perTarget: 100, goroutines: 16, shuffle: true},
		{name: "shuffled overflows window", shards: 2, window: 8, targets: 5, perTarget: 64, goroutines: 12, shuffle: true},
		{name: "duplicates rejected", shards: 4, window: 64, targets: 6, perTarget: 30, goroutines: 8, dupes: true},
		{name: "single shard serializes", shards: 1, window: 32, targets: 10, perTarget: 50, goroutines: 10, shuffle: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore(tc.shards, tc.window)

			// Build the submission list: per-target chronological batches,
			// optionally shuffled globally and doubled with duplicates.
			var work []trace.Attack
			for tg := 0; tg < tc.targets; tg++ {
				as := astopo.AS(65000 + tg)
				for i := 0; i < tc.perTarget; i++ {
					work = append(work, propRecord(as, i))
				}
			}
			if tc.dupes {
				work = append(work, work...)
			}
			if tc.shuffle || tc.dupes {
				s := stats.NewSampler(uint64(ci)*977 + 5)
				for i := len(work) - 1; i > 0; i-- {
					j := s.IntN(i + 1)
					work[i], work[j] = work[j], work[i]
				}
			}

			// Concurrent ingest: goroutines claim strided slices of the
			// submission list, so shard mutex interleavings vary freely.
			var (
				wg       sync.WaitGroup
				accepted = make([]int64, tc.goroutines)
			)
			for g := 0; g < tc.goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(work); i += tc.goroutines {
						if _, _, ok := st.Ingest(&work[i]); ok {
							accepted[g]++
						}
					}
				}(g)
			}
			wg.Wait()

			// Global accounting: duplicates of in-window records are the
			// only rejections.
			var acceptedTotal int64
			for _, n := range accepted {
				acceptedTotal += n
			}
			wantUnique := int64(tc.targets * tc.perTarget)
			if tc.dupes {
				// perTarget <= window, so every duplicate finds its original
				// still resident and must be rejected.
				if tc.perTarget > tc.window {
					t.Fatalf("bad case: dupes need perTarget <= window")
				}
			}
			if acceptedTotal != wantUnique {
				t.Fatalf("accepted %d records, want %d unique", acceptedTotal, wantUnique)
			}
			checkLen(t, st, "ingest", tc.targets)

			// Per-target invariants.
			for tg := 0; tg < tc.targets; tg++ {
				as := astopo.AS(65000 + tg)
				win, total := st.Window(as)
				if total != uint64(tc.perTarget) {
					t.Fatalf("AS%d total %d, want %d (lost or double-counted records)", as, total, tc.perTarget)
				}
				wantLen := tc.perTarget
				if wantLen > tc.window {
					wantLen = tc.window
				}
				if len(win) != wantLen {
					t.Fatalf("AS%d window %d records, want %d", as, len(win), wantLen)
				}
				seen := make(map[int]bool, len(win))
				for i, a := range win {
					if a.TargetAS != as {
						t.Fatalf("AS%d window holds a record for AS%d", as, a.TargetAS)
					}
					if seen[a.ID] {
						t.Fatalf("AS%d window holds ID %d twice", as, a.ID)
					}
					seen[a.ID] = true
					if i > 0 && a.Start.Before(win[i-1].Start) {
						t.Fatalf("AS%d window not chronological at %d: %v after %v",
							as, i, a.Start, win[i-1].Start)
					}
				}
				// Lossless when everything fits: the window is exactly the
				// full generated set in order.
				if tc.perTarget <= tc.window {
					for i, a := range win {
						if want := propRecord(as, i); a.ID != want.ID {
							t.Fatalf("AS%d window[%d] = ID %d, want %d", as, i, a.ID, want.ID)
						}
					}
				}
			}

			// Len reads the store's target counter: it must match the shard
			// maps after restore and eviction too.
			cp := st.Checkpoint()
			st.Restore(cp) // every target already known
			checkLen(t, st, "restore over known targets", tc.targets)
			fresh := NewStore(tc.shards, tc.window)
			fresh.Restore(cp)
			checkLen(t, fresh, "restore into an empty store", tc.targets)
			evicted := 0
			st.SetMaxTargets(tc.targets, func(astopo.AS) { evicted++ })
			for tg := 0; tg < tc.targets; tg++ {
				r := propRecord(astopo.AS(66000+tg), 0)
				st.Ingest(&r)
			}
			if evicted == 0 {
				t.Fatal("no target evicted over the cap")
			}
			checkLen(t, st, "eviction", 2*tc.targets-evicted)
		})
	}
}

// checkLen requires Store.Len, the targets in the shard maps, and want
// to agree.
func checkLen(t *testing.T, st *Store, stage string, want int) {
	t.Helper()
	n := 0
	for i := range st.shards {
		n += len(st.shards[i].targets)
	}
	if st.Len() != n || n != want {
		t.Fatalf("after %s: Len %d, shard maps hold %d, want %d", stage, st.Len(), n, want)
	}
}

// TestStoreWindowEvictsOldest pins the eviction discipline for in-order
// arrival: the window is exactly the chronologically-latest w records.
func TestStoreWindowEvictsOldest(t *testing.T) {
	const w = 8
	st := NewStore(1, w)
	as := astopo.AS(64999)
	for i := 0; i < 3*w; i++ {
		r := propRecord(as, i)
		st.Ingest(&r)
	}
	win, total := st.Window(as)
	if total != 3*w {
		t.Fatalf("total %d, want %d", total, 3*w)
	}
	for i, a := range win {
		if want := propRecord(as, 2*w+i); a.ID != want.ID {
			t.Fatalf("window[%d] = ID %d, want %d (oldest not evicted)", i, a.ID, want.ID)
		}
	}
}

// TestStoreRefitCounters pins the since-refit bookkeeping the scheduler
// relies on: a refit's window read is its mark. The read zeroes the
// since-refit count and clears the unread stamp, returning the stamp it
// cleared, so only records ingested after the read count toward the next
// refit and stamp the next deadline.
func TestStoreRefitCounters(t *testing.T) {
	const as = astopo.AS(64998)
	for _, tc := range []struct {
		name      string
		steps     []int // n > 0 ingests n new records; 0 is a refit read
		wantSince int
		wantStamp bool // an unread stamp is set after the steps
	}{
		{"ingest only", []int{5}, 5, true},
		{"the read clears", []int{5, 0}, 0, false},
		{"records after the read count", []int{5, 0, 2}, 2, true},
		{"records between two reads", []int{5, 0, 2, 0, 1}, 1, true},
		{"a read of nothing new", []int{5, 0, 0}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore(2, 16)
			state := func() (int, time.Duration) {
				sh := st.shardFor(as)
				sh.mu.Lock()
				defer sh.mu.Unlock()
				ts := sh.targets[as]
				return ts.sinceRefit, ts.unread
			}
			n, unreadSinceRead := 0, 0
			for _, step := range tc.steps {
				if step > 0 {
					for k := 0; k < step; k++ {
						r := propRecord(as, n)
						st.Ingest(&r)
						n++
					}
					unreadSinceRead += step
					continue
				}
				_, before := state()
				win, total, stamp := st.readForRefit(as)
				if len(win) != n || total != uint64(n) {
					t.Fatalf("read %d records at total %d, want %d", len(win), total, n)
				}
				if stamp != before || (stamp != 0) != (unreadSinceRead > 0) {
					t.Fatalf("read returned stamp %v (held %v) with %d unread records", stamp, before, unreadSinceRead)
				}
				unreadSinceRead = 0
			}
			since, stamp := state()
			if since != tc.wantSince || (stamp != 0) != tc.wantStamp {
				t.Fatalf("sinceRefit %d, stamp %v; want %d, stamp set %v", since, stamp, tc.wantSince, tc.wantStamp)
			}
			// A duplicate is not a new record: it neither counts nor stamps.
			dup := propRecord(as, n-1)
			st.Ingest(&dup)
			if s2, stamp2 := state(); s2 != since || stamp2 != stamp {
				t.Fatalf("duplicate moved sinceRefit %d→%d, stamp %v→%v", since, s2, stamp, stamp2)
			}
		})
	}
	if win, total, stamp := NewStore(2, 16).readForRefit(as); win != nil || total != 0 || stamp != 0 {
		t.Fatalf("read of an unknown target = %d records, total %d, stamp %v; want nothing", len(win), total, stamp)
	}
}
