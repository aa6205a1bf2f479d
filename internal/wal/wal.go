// Package wal is the daemon's write-ahead log: a directory of
// fixed-capacity segment files holding length+CRC32C-framed records, so
// every ingest ddosd acknowledges survives a crash and replays into the
// state store on the next boot (DESIGN.md §10). The design follows the
// classic segmented-log shape:
//
//   - Appends go to a single active segment; when it fills, the segment is
//     sealed (synced, closed) and a new one opens. Sealed segments are
//     immutable.
//   - Each record is framed as [length uint32 LE][crc32c uint32 LE][payload],
//     and each segment starts with an 8-byte magic header. A frame is valid
//     only if it is complete and its checksum matches, so a crash mid-write
//     can only ever produce a detectable torn tail — never a silently
//     half-applied record.
//   - Replay walks the sealed segments in sequence order and stops cleanly
//     at the first torn or corrupt frame: everything acked before the tear
//     is delivered, the tear itself is reported, and nothing after it is
//     trusted.
//   - Compact removes sealed segments once a checkpoint of the replayed
//     state covers them (serve.Service.CheckpointWAL).
//
// Durability is tunable per deployment with SyncPolicy: fsync on every
// append (ack == on disk), on a background interval (bounded loss window,
// much cheaper), or never (page cache only; survives process death but not
// power loss).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// segmentSuffix names segment files: <seq as %016x>.wal.
	segmentSuffix = ".wal"
	// frameHeaderLen is the per-record framing overhead.
	frameHeaderLen = 8
	// MaxRecordBytes caps one record's payload. A decoded length above the
	// cap marks the frame corrupt instead of attempting the allocation.
	MaxRecordBytes = 16 << 20
	// DefaultSegmentBytes is the segment-rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 16 << 20
)

// segmentMagic opens every segment file; a file that does not start with
// it is treated as corrupt from offset zero.
var segmentMagic = []byte("ddoswal1")

// castagnoli is the CRC32C table (the polynomial with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// SyncMode selects when appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs before AppendBatch returns: an acked record is on
	// disk.
	SyncAlways SyncMode = iota
	// SyncInterval batches fsyncs on a background timer: at most one
	// interval of acked records can be lost to a power failure.
	SyncInterval
	// SyncNever leaves flushing to the OS: records survive a process
	// crash (the kernel holds the writes) but not a machine crash.
	SyncNever
)

// SyncPolicy is a SyncMode plus the batching interval for SyncInterval.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
}

// ParseSyncPolicy reads the -wal-fsync flag forms: "always", "never", or
// a positive Go duration such as "100ms" for interval batching.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "never":
		return SyncPolicy{Mode: SyncNever}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("wal: bad sync policy %q (want always, never, or a positive duration)", s)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// String renders the policy in the same form ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncInterval:
		return p.Interval.String()
	case SyncNever:
		return "never"
	default:
		return "always"
	}
}

// Options configures Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this size.
	// Default DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the durability policy. The zero value is SyncAlways.
	Sync SyncPolicy
}

// Stats is a point-in-time summary of the log (the ddosd_wal_* gauges).
type Stats struct {
	ActiveSeq      uint64 // sequence number of the append segment
	ActiveBytes    int64  // bytes in the append segment (incl. header)
	SealedSegments int    // immutable segments awaiting compaction
	SealedBytes    int64  // bytes across sealed segments
	Appends        uint64 // records appended over this WAL's lifetime
	AppendedBytes  uint64 // frame bytes appended over this WAL's lifetime
}

// TotalSegments is the segment-file count on disk: sealed plus the one
// active append segment.
func (s Stats) TotalSegments() int { return s.SealedSegments + 1 }

// DiskBytes is the log's total on-disk footprint: sealed segments plus
// the active append segment.
func (s Stats) DiskBytes() int64 { return s.SealedBytes + s.ActiveBytes }

// ReplayResult summarizes one Replay pass.
type ReplayResult struct {
	Segments     int    // sealed segments visited
	Records      int    // frames delivered to the callback
	Truncated    bool   // a torn/corrupt frame stopped the replay early
	TruncatedSeq uint64 // segment holding the bad frame (when Truncated)
	TruncatedOff int64  // byte offset of the bad frame (when Truncated)
}

// WAL is a segmented append-only log. All methods are safe for concurrent
// use.
type WAL struct {
	opts Options

	mu            sync.Mutex
	f             *os.File
	activeSeq     uint64
	activeBytes   int64
	sealed        map[uint64]int64 // seq -> file size
	appends       uint64
	appendedBytes uint64
	dirty         bool // unsynced appends (SyncInterval)
	closed        bool
	frame         []byte // reusable frame buffer

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open creates Dir if needed, catalogs the existing segments as sealed,
// and starts a fresh active segment after the highest existing sequence —
// a possibly-torn tail from a crashed process is never appended to, only
// replayed. The previous run's segments stay on disk until Compact.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < int64(len(segmentMagic))+frameHeaderLen {
		opts.SegmentBytes = int64(len(segmentMagic)) + frameHeaderLen
	}
	if opts.Sync.Mode == SyncInterval && opts.Sync.Interval <= 0 {
		return nil, errors.New("wal: SyncInterval needs a positive interval")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{opts: opts, sealed: make(map[uint64]int64)}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var maxSeq uint64
	for _, e := range entries {
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		w.sealed[seq] = info.Size()
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	w.activeSeq = maxSeq + 1
	if err := w.openActiveLocked(); err != nil {
		return nil, err
	}
	if opts.Sync.Mode == SyncInterval {
		w.syncStop = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// Dir returns the segment directory.
func (w *WAL) Dir() string { return w.opts.Dir }

func segmentName(seq uint64) string {
	return fmt.Sprintf("%016x%s", seq, segmentSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segmentSuffix)
	if !ok || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func (w *WAL) segmentPath(seq uint64) string {
	return filepath.Join(w.opts.Dir, segmentName(seq))
}

// openActiveLocked creates the active segment file and writes its header.
func (w *WAL) openActiveLocked() error {
	f, err := os.OpenFile(w.segmentPath(w.activeSeq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	w.f = f
	w.activeBytes = int64(len(segmentMagic))
	// Make the new file name durable before anything depends on it.
	syncDir(w.opts.Dir)
	return nil
}

// AppendBatch frames every payload into the active segment under a
// single lock acquisition, buffering the frames into one write (per
// rotation-delimited run) and — under SyncAlways — paying one fsync for
// the whole batch instead of one per record, so the records are on disk
// when it returns. It is the log's only append call (the ingest path
// makes it before the HTTP ack): a 64-record batch costs the same number
// of fsyncs as a 1-record one. A frame that would overflow a non-empty
// active segment rotates it first; counters advance only for frames that
// reached the file.
func (w *WAL) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return fmt.Errorf("wal: record %d bytes over cap %d", len(p), MaxRecordBytes)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.frame = w.frame[:0]
	pending := uint64(0)
	flush := func() error {
		if len(w.frame) == 0 {
			return nil
		}
		if _, err := w.f.Write(w.frame); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		w.activeBytes += int64(len(w.frame))
		w.appends += pending
		w.appendedBytes += uint64(len(w.frame))
		pending = 0
		w.frame = w.frame[:0]
		return nil
	}
	for _, p := range payloads {
		need := int64(frameHeaderLen + len(p))
		filled := w.activeBytes + int64(len(w.frame))
		if filled > int64(len(segmentMagic)) && filled+need > w.opts.SegmentBytes {
			if err := flush(); err != nil {
				return err
			}
			if err := w.rotateLocked(); err != nil {
				return err
			}
		}
		w.frame = binary.LittleEndian.AppendUint32(w.frame, uint32(len(p)))
		w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.Checksum(p, castagnoli))
		w.frame = append(w.frame, p...)
		pending++
	}
	if err := flush(); err != nil {
		return err
	}
	switch w.opts.Sync.Mode {
	case SyncAlways:
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	case SyncInterval:
		w.dirty = true
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.dirty = false
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.Sync.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.syncStop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.dirty {
				w.dirty = false
				_ = w.f.Sync()
			}
			w.mu.Unlock()
		}
	}
}

// rotateLocked seals the active segment and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: seal sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: seal close: %w", err)
	}
	w.dirty = false
	w.sealed[w.activeSeq] = w.activeBytes
	w.activeSeq++
	return w.openActiveLocked()
}

// Rotate seals the active segment (if it holds any records) and returns
// the highest sealed sequence — everything at or below it is immutable on
// disk, the checkpoint cut line. An empty active segment is kept, so
// back-to-back checkpoints do not churn files.
func (w *WAL) Rotate() (sealedUpTo uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.activeBytes > int64(len(segmentMagic)) {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return w.activeSeq - 1, nil
}

// Compact removes sealed segments with sequence ≤ upTo (the segments a
// durable checkpoint covers). The active segment is never touched.
func (w *WAL) Compact(upTo uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	for seq := range w.sealed {
		if seq > upTo {
			continue
		}
		if err := os.Remove(w.segmentPath(seq)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		delete(w.sealed, seq)
		removed++
	}
	if removed > 0 {
		syncDir(w.opts.Dir)
	}
	return removed, nil
}

// Replay streams every record of the sealed segments, oldest first, to fn
// along with the segment sequence it came from. Replay stops cleanly at
// the first torn or corrupt frame: the result reports where, records
// before the tear are all delivered, and no error is returned for the
// tear itself — only fn's own error (which aborts the walk) or an I/O
// error surfaces. The active segment (created by this Open) is not read.
func (w *WAL) Replay(fn func(seq uint64, payload []byte) error) (ReplayResult, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ReplayResult{}, ErrClosed
	}
	seqs := make([]uint64, 0, len(w.sealed))
	for seq := range w.sealed {
		seqs = append(seqs, seq)
	}
	w.mu.Unlock()
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	var res ReplayResult
	for _, seq := range seqs {
		f, err := os.Open(w.segmentPath(seq))
		if err != nil {
			return res, fmt.Errorf("wal: replay: %w", err)
		}
		n, off, clean, err := ScanSegment(f, func(payload []byte) error {
			return fn(seq, payload)
		})
		f.Close()
		res.Segments++
		res.Records += n
		if err != nil {
			return res, err
		}
		if !clean {
			res.Truncated = true
			res.TruncatedSeq = seq
			res.TruncatedOff = off
			return res, nil
		}
	}
	return res, nil
}

// ScanSegment decodes one segment stream: the magic header, then frames
// until EOF. It returns the number of valid frames delivered, the byte
// offset scanning stopped at, and clean=true when the segment ended
// exactly on a frame boundary. clean=false — a torn tail, a checksum
// mismatch, an implausible length, or a bad header — is an expected
// crash artifact, not an error; only fn's error or a non-EOF read error
// is returned. Exposed for the fuzz harness.
func ScanSegment(r io.Reader, fn func(payload []byte) error) (records int, off int64, clean bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(segmentMagic))
	n, err := io.ReadFull(br, head)
	off = int64(n)
	if err != nil || !hasMagic(head) {
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, off, false, fmt.Errorf("wal: read segment header: %w", err)
		}
		// Short or wrong header: corrupt from the start.
		return 0, 0, false, nil
	}
	var hdr [frameHeaderLen]byte
	var payload []byte
	for {
		_, err := io.ReadFull(br, hdr[:])
		if errors.Is(err, io.EOF) {
			return records, off, true, nil // frame boundary: clean end
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return records, off, false, nil // torn frame header
		}
		if err != nil {
			return records, off, false, fmt.Errorf("wal: read frame: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordBytes {
			return records, off, false, nil // implausible length: corrupt
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return records, off, false, nil // torn payload
			}
			return records, off, false, fmt.Errorf("wal: read frame: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return records, off, false, nil // bit rot or mid-frame tear
		}
		if err := fn(payload); err != nil {
			return records, off, false, err
		}
		records++
		off += frameHeaderLen + int64(length)
	}
}

func hasMagic(b []byte) bool {
	if len(b) != len(segmentMagic) {
		return false
	}
	for i := range b {
		if b[i] != segmentMagic[i] {
			return false
		}
	}
	return true
}

// Stats returns current counters and sizes.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Stats{
		ActiveSeq:      w.activeSeq,
		ActiveBytes:    w.activeBytes,
		SealedSegments: len(w.sealed),
		Appends:        w.appends,
		AppendedBytes:  w.appendedBytes,
	}
	for _, size := range w.sealed {
		s.SealedBytes += size
	}
	return s
}

// Close syncs and closes the active segment. Further operations return
// ErrClosed. Close is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.mu.Unlock()
	if w.syncStop != nil {
		close(w.syncStop)
		<-w.syncDone
	}
	if syncErr != nil {
		return fmt.Errorf("wal: close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close: %w", closeErr)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
