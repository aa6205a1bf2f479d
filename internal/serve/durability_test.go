package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/trace"
	"repro/internal/wal"
)

func openWAL(t *testing.T, dir string, segBytes int64) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// storeImage serializes the store's durable state for equality checks.
// The since-refit counter is zeroed: it moves with background refit
// timing (MarkRefitted), and losing refit marks across a crash only makes
// the next refit come earlier.
func storeImage(t *testing.T, s *Store) []byte {
	t.Helper()
	cp := s.Checkpoint()
	for i := range cp {
		cp[i].SinceRefit = 0
	}
	buf, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestWALRecoveryRoundTrip is the basic crash story: ingest with a WAL
// attached, drop the service on the floor (no final checkpoint), boot a
// fresh one from the same directory. The replayed store must be
// byte-identical and the recovered targets must serve forecasts again
// before the daemon would start listening.
func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	svc := New(cfg)
	svc.AttachWAL(openWAL(t, dir, 0), nil)

	const as = astopo.AS(64512)
	for _, a := range mkAttacks(as, 0, 20) {
		if _, err := svc.Ingest(&a); err != nil {
			t.Fatal(err)
		}
	}
	want := storeImage(t, svc.Store())
	svc.Close() // detaches, but never checkpoints: the WAL is the only copy

	svc2 := New(cfg)
	defer svc2.Close()
	w2 := openWAL(t, dir, 0)
	rs, err := svc2.RecoverWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 20 || rs.Truncated {
		t.Fatalf("recovery = %+v, want 20 clean replays", rs)
	}
	if rs.Refits == 0 {
		t.Fatal("recovery did not re-schedule any refits")
	}
	if got := storeImage(t, svc2.Store()); !bytes.Equal(got, want) {
		t.Fatalf("replayed store differs from pre-crash store:\n got %s\nwant %s", got, want)
	}
	// RecoverWAL flushes the refit queue, so the target serves immediately.
	if _, err := svc2.Forecast(as); err != nil {
		t.Fatalf("recovered target not serving: %v", err)
	}

	// Replaying the same WAL into the same service is idempotent: the dedup
	// window absorbs every record.
	rs2, err := svc2.RecoverWAL(w2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Replayed != 0 || rs2.Duplicates != 20 {
		t.Fatalf("second replay = %+v, want 0 new / 20 duplicates", rs2)
	}
}

// copyWALDir snapshots a WAL directory the way SIGKILL would leave it —
// a point-in-time image of the files (the WAL has no userspace buffering,
// so written bytes are what a restarted process reads back).
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWALCrashRecoveryProperty drives randomized kill-point recovery:
// records stream in across several targets while checkpoints fire at
// random; at random points the WAL directory is imaged (= SIGKILL),
// sometimes with garbage appended to the newest segment (= a torn write
// caught mid-frame). Every image must recover to a store byte-identical
// to a reference store fed exactly the records acked before the image —
// nothing lost, nothing extra, torn tails never fatal.
func TestWALCrashRecoveryProperty(t *testing.T) {
	const (
		targets = 5
		records = 300
	)
	rng := rand.New(rand.NewSource(41))
	cfg := testConfig()
	// Keep the scheduler quiet so since-refit counters stay deterministic
	// and the image comparison can demand full byte equality.
	cfg.MinWindow = 1 << 20
	cfg.RefitEvery = 1 << 20
	// Park the background checkpointer: kill-point images must not race a
	// concurrent compaction; every checkpoint in this test is explicit.
	oldInterval := walCheckInterval
	walCheckInterval = time.Hour
	defer func() { walCheckInterval = oldInterval }()

	dir := t.TempDir()
	svc := New(cfg)
	defer svc.Close()
	w := openWAL(t, dir, 512) // tiny segments: rotations and compactions mid-run
	svc.AttachWAL(w, nil)

	var stream []trace.Attack
	for i := 0; i < targets; i++ {
		stream = append(stream, mkAttacks(astopo.AS(64512+i), 1000*i, records/targets)...)
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

	type image struct {
		dir   string
		acked int
		torn  bool
	}
	var images []image
	for i := range stream {
		if _, err := svc.Ingest(&stream[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rng.Float64() < 0.05 {
			if err := svc.CheckpointWAL(); err != nil {
				t.Fatalf("checkpoint after record %d: %v", i, err)
			}
		}
		if rng.Float64() < 0.04 || i == len(stream)-1 {
			img := image{dir: copyWALDir(t, dir), acked: i + 1}
			if rng.Float64() < 0.5 {
				// A torn final frame: garbage the crashed writer never finished.
				segs, err := filepath.Glob(filepath.Join(img.dir, "*.wal"))
				if err != nil || len(segs) == 0 {
					t.Fatalf("no segments in image after record %d: %v", i, err)
				}
				newest := segs[len(segs)-1]
				garbage := make([]byte, 1+rng.Intn(16))
				rng.Read(garbage)
				f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(garbage)
				f.Close()
				img.torn = true
			}
			images = append(images, img)
		}
	}
	if len(images) < 5 {
		t.Fatalf("only %d kill-point images taken, rng drifted?", len(images))
	}

	for _, img := range images {
		ref := NewStore(cfg.Shards, cfg.Window)
		for i := 0; i < img.acked; i++ {
			ref.Ingest(&stream[i])
		}
		want := storeImage(t, ref)

		rec := New(cfg)
		w2 := openWAL(t, img.dir, 512)
		rs, err := rec.RecoverWAL(w2, nil)
		if err != nil {
			t.Fatalf("image at %d acked (torn=%v): %v", img.acked, img.torn, err)
		}
		if img.torn && !rs.Truncated {
			t.Fatalf("image at %d acked: torn tail not reported: %+v", img.acked, rs)
		}
		if got := storeImage(t, rec.Store()); !bytes.Equal(got, want) {
			t.Fatalf("image at %d acked (torn=%v, stats %+v): recovered store diverges\n got %s\nwant %s",
				img.acked, img.torn, rs, got, want)
		}
		w2.Close()
		rec.Close()
	}
}

// TestWALRecoveryRejectsCorruptCheckpoint: the checkpoint is written
// atomically and its covered segments are gone, so damage to it cannot be
// shrugged off like a torn WAL tail — boot must fail loudly.
func TestWALRecoveryRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	svc := New(cfg)
	svc.AttachWAL(openWAL(t, dir, 0), nil)
	for _, a := range mkAttacks(64512, 0, 8) {
		if _, err := svc.Ingest(&a); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte(`{"covered_`), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := New(cfg)
	defer svc2.Close()
	if _, err := svc2.RecoverWAL(openWAL(t, dir, 0), nil); err == nil {
		t.Fatal("corrupt checkpoint recovered without error")
	}
}

// TestIngestWALFailureMapsTo500 pins the not-durable contract: when the
// WAL cannot take the append, the whole request stays in memory but
// fails with 500 so the client retries (the dedup window absorbs the
// replay), and the error body reports every record as ingested.
func TestIngestWALFailureMapsTo500(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	svc := New(cfg)
	defer svc.Close()
	w := openWAL(t, dir, 0)
	svc.AttachWAL(w, nil)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	w.Close() // every append now fails

	attacks := mkAttacks(64512, 0, 2)
	resp := postAttacks(t, srv.URL, attacks)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	res := decodeBody[IngestResult](t, resp)
	if res.Error == "" || res.Ingested != 2 {
		t.Fatalf("not-durable body = %+v, want error set and ingested 2", res)
	}

	// The records are in memory: resending them after the WAL heals dedups.
	svc.DetachWAL()
	resp = postAttacks(t, srv.URL, attacks)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200", resp.StatusCode)
	}
	if res := decodeBody[IngestResult](t, resp); res.Duplicates != 2 || res.Ingested != 0 {
		t.Fatalf("retry = %+v, want 2 duplicates", res)
	}
}

// TestIngestBodyCap413 pins the request-size guard: a body over
// MaxBatchBytes answers 413, not a generic 400.
func TestIngestBodyCap413(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatchBytes = 512
	svc := New(cfg)
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := postAttacks(t, srv.URL, mkAttacks(64512, 0, 32))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	res := decodeBody[IngestResult](t, resp)
	if !strings.Contains(res.Error, "512") {
		t.Fatalf("413 body %q does not name the byte cap", res.Error)
	}
}
