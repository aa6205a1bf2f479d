package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// Durability layer (DESIGN.md §10): the glue between the serving stack
// and internal/wal. Three moving parts:
//
//   - Append path: ingestBatch, the one ingest pipeline, appends every
//     accepted record's binary record encoding (trace.AppendRecord — the
//     bytes the batch wire carries, passed through without
//     re-serialization when the request came in on that wire) in one
//     wal.AppendBatch call before the ack (the StageWAL child of the
//     ingest span). It runs under the shared side of the checkpoint
//     barrier (Service.walMu) together with the store insert. Replay
//     dispatches per frame on the first payload byte, so logs holding
//     legacy JSON frames keep replaying.
//   - Recovery path: RecoverWAL restores the last durable checkpoint into
//     the store, replays the WAL tail (stopping cleanly at a torn frame,
//     dropping records that fail ValidateRecord), re-schedules refits
//     for every recovered target, and waits for the models to publish
//     before the daemon starts serving.
//   - Checkpoint path: CheckpointWAL rotates the active segment, writes
//     the whole store (windows are bounded, so this is cheap) atomically
//     to checkpoint.json in the WAL dir, and compacts the segments the
//     checkpoint covers. A background loop runs it whenever sealed
//     segments accumulate, and the daemon runs it once more at shutdown
//     so the next boot replays (almost) nothing.

// checkpointName is the durable store image inside the WAL directory.
const checkpointName = "checkpoint.json"

// walCheckInterval is how often the background compactor looks for sealed
// segments to checkpoint away. A variable so deterministic tests can park
// the background loop and drive checkpoints explicitly.
var walCheckInterval = time.Second

// ErrNotDurable wraps WAL append failures surfaced by ingest: the records
// were applied in memory but could not be persisted, so the client must
// treat the request as failed and retry (dedup absorbs the replay). The
// HTTP layer maps it to 500 rather than 400 (the records were fine).
var ErrNotDurable = errors.New("serve: record not durable")

// checkpointFile is the on-disk checkpoint: the store image plus the WAL
// cut line it covers. Segments with sequence ≤ CoveredSeq are redundant
// once this file is durable; replay skips their frames if a crash beat
// the compaction to them.
type checkpointFile struct {
	CoveredSeq uint64             `json:"covered_seq"`
	Targets    []TargetCheckpoint `json:"targets"`
}

// RecoveryStats summarizes one boot-time RecoverWAL pass.
type RecoveryStats struct {
	CheckpointTargets int    // targets restored from checkpoint.json
	CoveredSeq        uint64 // WAL cut line the checkpoint covered
	Segments          int    // WAL segments visited by replay
	Replayed          int    // records replayed into the store
	Duplicates        int    // replayed frames dropped as duplicates
	Invalid           int    // replayed frames dropped as invalid records
	Skipped           int    // frames under the checkpoint cut line
	Truncated         bool   // replay stopped at a torn/corrupt frame
	TruncatedSeq      uint64 // segment holding the bad frame
	TruncatedOff      int64  // byte offset of the bad frame
	Refits            int    // targets re-queued for refit after replay
}

// AttachWAL arms the durability layer: subsequent accepted ingests append
// to w before they are acked, and a background loop checkpoints the store
// and compacts covered segments whenever the active segment rotates.
// Call after RecoverWAL at boot — an attached WAL must not be replayed
// into the same service again. The service does not take ownership of w;
// detach (or Close) before closing it.
func (s *Service) AttachWAL(w *wal.WAL, logger *slog.Logger) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s.walLogger = logger
	s.walRef.Store(w)
	s.updateWALGauges(w)
	s.walStop = make(chan struct{})
	s.walDone = make(chan struct{})
	go s.compactLoop(w)
}

// DetachWAL stops the background checkpointer and detaches the WAL from
// the ingest path. Safe to call when nothing is attached. Pending
// checkpoint state is left to the caller (ddosd runs one final
// CheckpointWAL before detaching).
func (s *Service) DetachWAL() {
	if s.walRef.Swap(nil) == nil {
		return
	}
	close(s.walStop)
	<-s.walDone
}

// WALStats exposes the attached WAL's counters (tests, /healthz callers).
// ok is false when no WAL is attached.
func (s *Service) WALStats() (wal.Stats, bool) {
	w := s.walRef.Load()
	if w == nil {
		return wal.Stats{}, false
	}
	return w.Stats(), true
}

// walErr returns the error that poisoned the attached WAL, nil while it
// is healthy or when none is attached.
func (s *Service) walErr() error {
	if w := s.walRef.Load(); w != nil {
		return w.Err()
	}
	return nil
}

// appendWALBatch is the WAL append site: a batch of pre-encoded frames
// in one wal.AppendBatch call, so one log lock and one fsync. Called
// under walMu.RLock from ingestBatch.
func (s *Service) appendWALBatch(w *wal.WAL, payloads [][]byte) error {
	if err := w.AppendBatch(payloads); err != nil {
		return err
	}
	s.tel.walAppends.Add(uint64(len(payloads)))
	var bytes uint64
	for _, p := range payloads {
		bytes += uint64(len(p)) + 8
	}
	s.tel.walBytes.Add(bytes)
	s.updateWALGauges(w)
	return nil
}

func (s *Service) updateWALGauges(w *wal.WAL) {
	st := w.Stats()
	s.tel.walSegments.Set(int64(st.TotalSegments()))
	s.tel.walActiveBytes.Set(st.ActiveBytes)
	s.tel.walDiskBytes.Set(st.DiskBytes())
	var failed int64
	if st.Failed {
		failed = 1
	}
	s.tel.walFailed.Set(failed)
}

// refreshWALGauges is the registry's scrape hook: the disk gauges track
// the WAL's real on-disk footprint at read time, not just the value at
// the last append (compaction and sealing both move them).
func (s *Service) refreshWALGauges() {
	if w := s.walRef.Load(); w != nil {
		s.updateWALGauges(w)
	}
}

// RecoverWAL rebuilds the store from the WAL directory: checkpoint first,
// then the segment tail, oldest first. Replay stops cleanly at the first
// torn or corrupt frame — everything acked before the tear is recovered,
// nothing after it is trusted — and a torn tail is never fatal. After the
// records are back, every target with enough history is re-queued for
// refit and the call blocks until those models publish, so the daemon
// serves forecasts immediately on restart. progress, when non-nil, is
// invoked after each replayed segment (the daemon logs it at debug).
//
// Call once at boot on a fresh service, before AttachWAL.
func (s *Service) RecoverWAL(w *wal.WAL, progress func(RecoveryStats)) (RecoveryStats, error) {
	var rs RecoveryStats
	cpPath := filepath.Join(w.Dir(), checkpointName)
	if f, err := os.Open(cpPath); err == nil {
		var cp checkpointFile
		err := json.NewDecoder(f).Decode(&cp)
		f.Close()
		if err != nil {
			// The checkpoint is written atomically, so a torn file here means
			// disk-level damage; its covered segments were compacted away, so
			// proceeding without it would silently drop acked records.
			return rs, fmt.Errorf("serve: wal checkpoint %s corrupt: %w (remove it to boot from the remaining segments)", cpPath, err)
		}
		s.store.Restore(cp.Targets)
		rs.CheckpointTargets = len(cp.Targets)
		rs.CoveredSeq = cp.CoveredSeq
	} else if !os.IsNotExist(err) {
		return rs, fmt.Errorf("serve: wal checkpoint: %w", err)
	}

	lastSeq := uint64(0)
	res, err := w.Replay(func(seq uint64, rec []byte) error {
		if seq != lastSeq && lastSeq != 0 && progress != nil {
			rs.Segments++
			progress(rs)
		}
		lastSeq = seq
		if seq <= rs.CoveredSeq {
			rs.Skipped++
			return nil
		}
		// Frames dispatch on their first byte: 0xDB marks the binary record
		// encoding, anything else is a legacy JSON frame from a pre-binary
		// log — both replay into the same store.
		var a trace.Attack
		if trace.IsBinaryRecord(rec) {
			if err := trace.UnmarshalRecord(rec, &a); err != nil {
				return fmt.Errorf("serve: wal segment %d holds an undecodable record: %w", seq, err)
			}
		} else if err := json.Unmarshal(rec, &a); err != nil {
			return fmt.Errorf("serve: wal segment %d holds an undecodable record: %w", seq, err)
		}
		// A logged record that fails ValidateRecord (acked by a build
		// with a looser check) is dropped and counted: replaying it would
		// poison the store, and failing the boot would strand every
		// record logged after it.
		if ValidateRecord(&a) != nil {
			rs.Invalid++
			return nil
		}
		if _, _, ok := s.store.Ingest(&a); ok {
			rs.Replayed++
		} else {
			rs.Duplicates++
		}
		return nil
	})
	rs.Segments = res.Segments
	rs.Truncated = res.Truncated
	rs.TruncatedSeq = res.TruncatedSeq
	rs.TruncatedOff = res.TruncatedOff
	if err != nil {
		return rs, err
	}
	s.tel.walReplayed.Add(uint64(rs.Replayed))
	s.tel.walReplayDups.Add(uint64(rs.Duplicates))
	if rs.Truncated {
		s.tel.walTruncations.Inc()
	}

	// Re-schedule refits so the registry repopulates before serving: the
	// marks wait for queue room, so every ready target publishes before
	// boot reports ready, however many there are.
	rs.Refits = s.requeueReady(s.store.Targets())
	s.sched.Flush()
	if progress != nil {
		progress(rs)
	}
	return rs, nil
}

// CheckpointWAL writes a durable image of the store into the WAL dir and
// compacts the segments it covers. The barrier (walMu) makes the cut
// exact: the rotation and the store snapshot happen atomically with
// respect to ingest's insert+append pair, so every record is either in
// this checkpoint (segment ≤ cut, compacted) or in a later segment
// (replayed on boot) — never both, never neither. The checkpoint file
// itself is written atomically; a crash at any point leaves either the
// old or the new checkpoint, each consistent with the segments on disk.
func (s *Service) CheckpointWAL() error {
	_, _, err := s.checkpointWAL()
	return err
}

// checkpointWAL is CheckpointWAL returning the checkpoint's content —
// the cluster catch-up fallback serves the same image it just made
// durable (Service.CheckpointSnapshot).
func (s *Service) checkpointWAL() (uint64, []TargetCheckpoint, error) {
	w := s.walRef.Load()
	if w == nil {
		return 0, nil, errors.New("serve: no WAL attached")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.walMu.Lock()
	covered, err := w.Rotate()
	var targets []TargetCheckpoint
	if err == nil {
		targets = s.store.Checkpoint()
	}
	s.walMu.Unlock()
	if err != nil {
		return 0, nil, err
	}

	path := filepath.Join(w.Dir(), checkpointName)
	err = wal.WriteFileAtomic(path, func(wr io.Writer) error {
		return json.NewEncoder(wr).Encode(&checkpointFile{CoveredSeq: covered, Targets: targets})
	})
	if err != nil {
		return 0, nil, err
	}
	removed, err := w.Compact(covered)
	if err != nil {
		return 0, nil, err
	}
	s.tel.walCheckpoints.Inc()
	s.tel.walCompacted.Add(uint64(removed))
	s.updateWALGauges(w)
	return covered, targets, nil
}

// compactLoop checkpoints in the background whenever segment rotation has
// left sealed segments behind, bounding both replay time after a crash
// and disk usage under sustained ingest.
func (s *Service) compactLoop(w *wal.WAL) {
	defer close(s.walDone)
	t := time.NewTicker(walCheckInterval)
	defer t.Stop()
	for {
		select {
		case <-s.walStop:
			return
		case <-t.C:
			if w.Stats().SealedSegments == 0 {
				continue
			}
			if err := s.CheckpointWAL(); err != nil {
				if errors.Is(err, wal.ErrClosed) {
					return
				}
				s.walLogger.Warn("wal checkpoint failed", "component", "wal", "error", err)
			}
		}
	}
}
