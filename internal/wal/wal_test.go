package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opts Options) *WAL {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func rec(i int) []byte { return []byte(fmt.Sprintf(`{"seq":%d,"pad":"0123456789abcdef"}`, i)) }

func replayAll(t *testing.T, w *WAL) ([][]byte, ReplayResult) {
	t.Helper()
	var got [][]byte
	res, err := w.Replay(func(_ uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 256}) // force several rotations
	const n = 100
	for i := 0; i < n; i++ {
		if err := w.AppendBatch([][]byte{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A second Open (a "reboot") sees every appended record, in order.
	w2 := mustOpen(t, Options{Dir: dir})
	got, res := replayAll(t, w2)
	if res.Truncated {
		t.Fatalf("clean log reported truncated: %+v", res)
	}
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, g := range got {
		if !bytes.Equal(g, rec(i)) {
			t.Fatalf("record %d = %q, want %q", i, g, rec(i))
		}
	}
	if res.Segments < 2 {
		t.Fatalf("expected multiple segments at SegmentBytes=256, got %d", res.Segments)
	}
}

func TestWALReopenWithoutCloseIsACrashImage(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	for i := 0; i < 20; i++ {
		if err := w.AppendBatch([][]byte{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate SIGKILL. The file bytes are already written (the
	// WAL has no userspace buffer), so a fresh Open must replay them all.
	w2 := mustOpen(t, Options{Dir: dir})
	got, res := replayAll(t, w2)
	if len(got) != 20 || res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want 20 clean", len(got), res.Truncated)
	}
	// The crashed process's active segment is sealed now; the new active
	// segment has a higher sequence.
	if s := w2.Stats(); s.ActiveSeq <= w.Stats().ActiveSeq-1 {
		t.Fatalf("new active seq %d not past crashed active %d", s.ActiveSeq, w.Stats().ActiveSeq)
	}
}

// TestWALReplayTornTail truncates the newest segment at every byte offset
// and asserts replay always yields a clean prefix of the appended records
// and never an error: torn tails are expected crash artifacts.
func TestWALReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	const n = 8
	for i := 0; i < n; i++ {
		if err := w.AppendBatch([][]byte{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(whole); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segs[0])), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(Options{Dir: sub})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		got, res := replayAll(t, w2)
		w2.Close()
		for i, g := range got {
			if !bytes.Equal(g, rec(i)) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, g, rec(i))
			}
		}
		if cut == len(whole) {
			if res.Truncated || len(got) != n {
				t.Fatalf("full file: got %d records truncated=%v", len(got), res.Truncated)
			}
		} else if len(got) == n && !res.Truncated && cut < len(whole) {
			// Cutting mid-file with all records intact can only happen if the
			// cut landed exactly after the last frame — impossible here since
			// cut < len(whole) and the file ends on the last frame.
			t.Fatalf("cut=%d silently replayed a torn file as complete", cut)
		}
	}
}

func TestWALRotateAndCompact(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		if err := w.AppendBatch([][]byte{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sealedUpTo, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.SealedSegments != 1 || s.ActiveSeq != sealedUpTo+1 {
		t.Fatalf("after rotate: %+v (sealedUpTo %d)", s, sealedUpTo)
	}
	// Rotating an empty active segment is a no-op with the same cut line.
	again, err := w.Rotate()
	if err != nil || again != sealedUpTo {
		t.Fatalf("empty rotate moved the cut line: %d -> %d (%v)", sealedUpTo, again, err)
	}
	for i := 10; i < 15; i++ {
		if err := w.AppendBatch([][]byte{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := w.Compact(sealedUpTo)
	if err != nil || removed != 1 {
		t.Fatalf("compact removed %d (%v), want 1", removed, err)
	}
	if s := w.Stats(); s.SealedSegments != 0 {
		t.Fatalf("sealed segments after compact: %+v", s)
	}

	// Only the uncompacted tail replays after a reopen.
	w.Close()
	w2 := mustOpen(t, Options{Dir: dir})
	got, res := replayAll(t, w2)
	if res.Truncated || len(got) != 5 {
		t.Fatalf("replayed %d records truncated=%v, want 5 clean", len(got), res.Truncated)
	}
	if !bytes.Equal(got[0], rec(10)) {
		t.Fatalf("tail replay starts at %q, want %q", got[0], rec(10))
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncPolicy{Mode: SyncAlways}, true},
		{"Never", SyncPolicy{Mode: SyncNever}, true},
		{"100ms", SyncPolicy{Mode: SyncInterval, Interval: 100 * time.Millisecond}, true},
		{"0s", SyncPolicy{}, false},
		{"-5ms", SyncPolicy{}, false},
		{"sometimes", SyncPolicy{}, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, %v; want %+v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() == "" {
			t.Fatalf("empty String() for %q", tc.in)
		}
	}

	// Interval mode: the background loop flushes without explicit Sync.
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncPolicy{Mode: SyncInterval, Interval: time.Millisecond}})
	if err := w.AppendBatch([][]byte{rec(0)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Never mode still replays across a reopen (page cache, same machine).
	w2 := mustOpen(t, Options{Dir: dir, Sync: SyncPolicy{Mode: SyncNever}})
	if err := w2.AppendBatch([][]byte{rec(1)}); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, w2)
	if len(got) != 1 {
		t.Fatalf("replayed %d sealed records, want 1", len(got))
	}
}

func TestWALClosedOperations(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir()})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.AppendBatch([][]byte{rec(0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendBatch after Close: %v", err)
	}
	if _, err := w.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close: %v", err)
	}
	if _, err := w.Compact(99); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: %v", err)
	}
	if _, err := w.Replay(func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay after Close: %v", err)
	}
}

func TestWALOversizeRecordRejected(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir()})
	if err := w.AppendBatch([][]byte{make([]byte, MaxRecordBytes+1)}); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestWriteFileAtomicReplacesAndPreservesOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.snap")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "good v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A failure injected mid-write must leave the old content intact and
	// no temp litter behind.
	boom := errors.New("disk exploded mid-write")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "torn v2 partial"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good v1" {
		t.Fatalf("old snapshot destroyed by failed write: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter after failed write: %v", entries)
	}

	// A successful rewrite replaces wholesale.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "good v2")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "good v2" {
		t.Fatalf("rewrite did not land: %q", got)
	}
}
