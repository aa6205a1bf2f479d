// Bit-flip replay tests live in the external test package: they drive the
// WAL through internal/chaos, which (via its refit injector) depends on
// internal/serve, which depends on this package — an in-package test file
// importing chaos would be an import cycle.
package wal_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/wal"
)

// TestWALReplayBitFlips runs the chaos corrupter over a sealed segment:
// replay must stop at the first corrupt frame, deliver only the intact
// prefix, and report the truncation — never fail or deliver mangled
// payloads.
func TestWALReplayBitFlips(t *testing.T) {
	rec := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"seq":%d,"pad":"0123456789abcdef"}`, i))
	}
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := w.AppendBatch([][]byte{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= 20; seed++ {
		corrupter := chaos.NewCorrupter(bytes.NewReader(whole), seed, 0.002)
		mangled, err := io.ReadAll(corrupter)
		if err != nil {
			t.Fatal(err)
		}
		if corrupter.Flipped() == 0 {
			continue
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segs[0])), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := wal.Open(wal.Options{Dir: sub})
		if err != nil {
			t.Fatalf("seed=%d: open: %v", seed, err)
		}
		var got [][]byte
		res, err := w2.Replay(func(_ uint64, payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		w2.Close()
		if err != nil {
			t.Fatalf("seed=%d: replay: %v", seed, err)
		}
		if !res.Truncated {
			t.Fatalf("seed=%d flipped %d bytes but replay reported clean", seed, corrupter.Flipped())
		}
		if len(got) >= n {
			t.Fatalf("seed=%d: corrupt log replayed all %d records", seed, len(got))
		}
		for i, g := range got {
			if !bytes.Equal(g, rec(i)) {
				t.Fatalf("seed=%d: delivered mangled record %d: %q", seed, i, g)
			}
		}
	}
}
