package wal

import (
	"errors"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// failSyncs replaces w's fsync: every call is counted, and fails with
// EIO while fail is set.
func failSyncs(w *WAL, fail *atomic.Bool) *atomic.Int64 {
	var calls atomic.Int64
	w.SetSyncFunc(func(f *os.File) error {
		calls.Add(1)
		if fail.Load() {
			return syscall.EIO
		}
		return f.Sync()
	})
	return &calls
}

func wantPoisoned(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrSyncFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("%s: got %v, want an error wrapping ErrSyncFailed and EIO", what, err)
	}
}

// TestWALIntervalFsyncFailureFailsNextAppend: under an interval policy
// nobody waits on the background fsync, so its failure must surface on
// the next append instead of being dropped.
func TestWALIntervalFsyncFailureFailsNextAppend(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncPolicy{Mode: SyncInterval, Interval: time.Millisecond}})
	var fail atomic.Bool
	failSyncs(w, &fail)
	if err := w.AppendBatch([][]byte{rec(0)}); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for w.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the interval fsync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	wantPoisoned(t, "Err", w.Err())
	before := w.Stats()
	wantPoisoned(t, "AppendBatch after a failed interval fsync", w.AppendBatch([][]byte{rec(1)}))
	after := w.Stats()
	if !after.Failed || after.Appends != before.Appends || after.ActiveBytes != before.ActiveBytes {
		t.Fatalf("stats after the refused append = %+v, want Failed and nothing written since %+v", after, before)
	}
}

// TestWALFsyncFailureIsSticky: once an fsync has failed, a later fsync
// that succeeds proves nothing about the records the failed one covered,
// so the log stays poisoned and never syncs again.
func TestWALFsyncFailureIsSticky(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir()}) // SyncAlways
	var fail atomic.Bool
	calls := failSyncs(w, &fail)
	if err := w.AppendBatch([][]byte{rec(0)}); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	wantPoisoned(t, "AppendBatch with a failing fsync", w.AppendBatch([][]byte{rec(1)}))
	fail.Store(false) // the device recovers
	n := calls.Load()
	wantPoisoned(t, "AppendBatch after recovery", w.AppendBatch([][]byte{rec(2)}))
	wantPoisoned(t, "Sync after recovery", w.Sync())
	_, err := w.Rotate()
	wantPoisoned(t, "Rotate after recovery", err)
	wantPoisoned(t, "Close after recovery", w.Close())
	if got := calls.Load(); got != n {
		t.Fatalf("a poisoned log called fsync %d more times", got-n)
	}
}
