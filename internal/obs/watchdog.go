package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// SLO-breach flight recorder (DESIGN.md §14). A Watchdog evaluates a set
// of rules (ingest p99, shed rate, replication lag, alert-storm rate —
// supplied by the serve layer) on an interval; when any rule's value
// exceeds its threshold it captures a bounded diagnostics bundle into a
// ring of on-disk directories: pprof cpu+heap profiles, plus any named
// snapshots the caller wires in (recent spans, /statusz, the last N slog
// lines). A bundle is built in a ".tmp-" directory and renamed into its
// bundle-* name only after meta.json is written, so listings never see a
// half-written bundle and a crash mid-capture leaves only temp litter,
// which the next NewWatchdog sweeps. The ring caps disk use — the flight
// recorder can run unattended for months.

// WatchdogRule is one monitored objective: breach when Value() exceeds
// Threshold.
type WatchdogRule struct {
	Name      string
	Threshold float64
	Value     func() float64
}

// Breach is one rule's violation at capture time.
type Breach struct {
	Rule      string  `json:"rule"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// WatchdogConfig tunes the flight recorder.
type WatchdogConfig struct {
	// Dir is the bundle ring directory (created if missing). Required.
	Dir string
	// Interval paces rule evaluation. Default 5s.
	Interval time.Duration
	// Cooldown is the minimum spacing between captures — a persistent
	// breach produces one bundle per cooldown, not one per interval.
	// Default 1m.
	Cooldown time.Duration
	// MaxBundles bounds the ring: the oldest bundle directory is removed
	// when a capture would exceed it. Default 8.
	MaxBundles int
	// CPUProfile is the cpu.pprof capture length. Default 1s; 0 keeps the
	// default, negative skips the CPU profile entirely.
	CPUProfile time.Duration
	// Rules are the monitored objectives. An empty set never captures.
	Rules []WatchdogRule
	// Snapshots are extra named bundle files: name → content producer
	// (spans.json, statusz.json, log.txt). A producer's error is recorded
	// in meta.json instead of failing the capture.
	Snapshots map[string]func() ([]byte, error)
	// OnCapture, when non-nil, observes each completed capture (the serve
	// layer's breach counter).
	OnCapture func(bundle string, breaches []Breach)
	// Logger receives breach and capture events. Default: discard.
	Logger *slog.Logger
}

// Watchdog is the flight recorder. Start launches the evaluation loop;
// Check runs one evaluation synchronously (tests and smoke drive it via
// the loop's low thresholds instead).
type Watchdog struct {
	cfg WatchdogConfig

	mu       sync.Mutex // serializes Check/capture against Handler reads
	lastCap  time.Time
	captures uint64

	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewWatchdog builds a flight recorder and creates its bundle directory.
func NewWatchdog(cfg WatchdogConfig) (*Watchdog, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: watchdog needs a bundle directory")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Minute
	}
	if cfg.MaxBundles < 1 {
		cfg.MaxBundles = 8
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: watchdog dir: %w", err)
	}
	// Sweep bundles a crashed capture left uncommitted.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("obs: watchdog dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), tmpBundlePrefix) {
			if err := os.RemoveAll(filepath.Join(cfg.Dir, e.Name())); err != nil {
				return nil, fmt.Errorf("obs: watchdog sweep: %w", err)
			}
		}
	}
	return &Watchdog{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the evaluation loop. Call once.
func (w *Watchdog) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return
	}
	w.started = true
	go w.loop()
}

func (w *Watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if _, err := w.Check(); err != nil {
				w.cfg.Logger.Warn("watchdog capture failed", "component", "watchdog", "error", err)
			}
		}
	}
}

// Close stops the evaluation loop (an in-flight capture completes first).
func (w *Watchdog) Close() {
	w.mu.Lock()
	started := w.started
	w.started = false
	w.mu.Unlock()
	if started {
		close(w.stop)
		<-w.done
	}
}

// Check evaluates every rule once and captures a bundle when at least one
// is breached and the cooldown has passed. Returns the bundle directory
// name ("" when nothing was captured).
func (w *Watchdog) Check() (string, error) {
	var breaches []Breach
	for _, r := range w.cfg.Rules {
		if v := r.Value(); v > r.Threshold {
			breaches = append(breaches, Breach{Rule: r.Name, Value: v, Threshold: r.Threshold})
		}
	}
	if len(breaches) == 0 {
		return "", nil
	}
	w.mu.Lock()
	if !w.lastCap.IsZero() && time.Since(w.lastCap) < w.cfg.Cooldown {
		w.mu.Unlock()
		return "", nil
	}
	w.lastCap = time.Now()
	w.captures++
	seq := w.captures
	w.mu.Unlock()
	for _, b := range breaches {
		w.cfg.Logger.Warn("slo breach", "component", "watchdog",
			"rule", b.Rule, "value", b.Value, "threshold", b.Threshold)
	}
	return w.capture(seq, breaches)
}

// bundleMeta is the bundle's meta.json.
type bundleMeta struct {
	CapturedAt time.Time         `json:"captured_at"`
	Breaches   []Breach          `json:"breaches"`
	Rules      []Breach          `json:"rules"` // every rule's value at capture, breached or not
	Errors     map[string]string `json:"capture_errors,omitempty"`
	Build      BuildProvenance   `json:"build"`
}

// tmpBundlePrefix names a bundle directory still being captured.
const tmpBundlePrefix = ".tmp-"

func (w *Watchdog) capture(seq uint64, breaches []Breach) (string, error) {
	now := time.Now().UTC()
	// The sequence number keeps same-millisecond captures from colliding
	// while preserving chronological sort order of bundle names.
	name := fmt.Sprintf("bundle-%s-%06d-%s", now.Format("20060102T150405.000"), seq, sanitizeName(breaches[0].Rule))
	dir := filepath.Join(w.cfg.Dir, tmpBundlePrefix+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: bundle dir: %w", err)
	}
	meta := bundleMeta{
		CapturedAt: now,
		Breaches:   breaches,
		Errors:     make(map[string]string),
		Build:      Provenance(),
	}
	for _, r := range w.cfg.Rules {
		meta.Rules = append(meta.Rules, Breach{Rule: r.Name, Value: r.Value(), Threshold: r.Threshold})
	}

	writeFile := func(file string, produce func(io.Writer) error) {
		if err := wal.WriteFileAtomic(filepath.Join(dir, file), produce); err != nil {
			meta.Errors[file] = err.Error()
		}
	}
	// Named snapshots first: they describe the state closest to the breach.
	names := make([]string, 0, len(w.cfg.Snapshots))
	for n := range w.cfg.Snapshots {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		produce := w.cfg.Snapshots[n]
		b, err := produce()
		if err != nil {
			meta.Errors[n] = err.Error()
			continue
		}
		writeFile(n, func(fw io.Writer) error { _, err := fw.Write(b); return err })
	}
	writeFile("heap.pprof", func(fw io.Writer) error {
		return pprof.Lookup("heap").WriteTo(fw, 0)
	})
	if w.cfg.CPUProfile > 0 {
		writeFile("cpu.pprof", func(fw io.Writer) error {
			// Fails when another profiler (admin pprof) is live; the error
			// lands in meta.json and the rest of the bundle stands.
			if err := pprof.StartCPUProfile(fw); err != nil {
				return err
			}
			time.Sleep(w.cfg.CPUProfile)
			pprof.StopCPUProfile()
			return nil
		})
	}
	if len(meta.Errors) == 0 {
		meta.Errors = nil
	}
	err := wal.WriteFileAtomic(filepath.Join(dir, "meta.json"), func(fw io.Writer) error {
		enc := json.NewEncoder(fw)
		enc.SetIndent("", "  ")
		return enc.Encode(&meta)
	})
	if err == nil {
		// The commit point: the bundle appears whole under its name.
		err = os.Rename(dir, filepath.Join(w.cfg.Dir, name))
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("obs: bundle %s: %w", name, err)
	}
	w.prune()
	w.cfg.Logger.Info("captured diagnostics bundle", "component", "watchdog",
		"bundle", name, "breaches", len(breaches))
	if w.cfg.OnCapture != nil {
		w.cfg.OnCapture(name, breaches)
	}
	return name, nil
}

// prune enforces the bundle ring: oldest directories beyond MaxBundles
// are removed. Bundle names sort chronologically by construction.
func (w *Watchdog) prune() {
	names := w.bundleNames()
	for len(names) > w.cfg.MaxBundles {
		_ = os.RemoveAll(filepath.Join(w.cfg.Dir, names[0]))
		names = names[1:]
	}
}

func (w *Watchdog) bundleNames() []string {
	entries, err := os.ReadDir(w.cfg.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// BundleInfo is one bundle in the /debug/bundle listing.
type BundleInfo struct {
	Name  string   `json:"name"`
	Files []string `json:"files"`
}

// Bundles lists the retained bundles, oldest first.
func (w *Watchdog) Bundles() []BundleInfo {
	var out []BundleInfo
	for _, name := range w.bundleNames() {
		info := BundleInfo{Name: name}
		if entries, err := os.ReadDir(filepath.Join(w.cfg.Dir, name)); err == nil {
			for _, e := range entries {
				if !e.IsDir() {
					info.Files = append(info.Files, e.Name())
				}
			}
		}
		out = append(out, info)
	}
	return out
}

// Captures returns the all-time capture count.
func (w *Watchdog) Captures() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.captures
}

// bundleList is the /debug/bundle response body.
type bundleList struct {
	Dir        string       `json:"dir"`
	MaxBundles int          `json:"max_bundles"`
	Captures   uint64       `json:"captures"`
	Rules      []Breach     `json:"rules"`
	Bundles    []BundleInfo `json:"bundles"`
}

// Handler serves the bundle ring: GET /debug/bundle lists bundles and the
// current rule values; ?name=<bundle>&file=<f> streams one captured file.
func (w *Watchdog) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		file := r.URL.Query().Get("file")
		if name == "" && file == "" {
			list := bundleList{
				Dir:        w.cfg.Dir,
				MaxBundles: w.cfg.MaxBundles,
				Captures:   w.Captures(),
				Bundles:    w.Bundles(),
			}
			for _, rule := range w.cfg.Rules {
				list.Rules = append(list.Rules, Breach{Rule: rule.Name, Value: rule.Value(), Threshold: rule.Threshold})
			}
			rw.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(rw).Encode(&list)
			return
		}
		if name == "" || file == "" || !safeBundlePart(name) || !safeBundlePart(file) {
			writeBundleErr(rw, http.StatusBadRequest, "need both name=<bundle> and file=<f>, plain names only")
			return
		}
		f, err := os.Open(filepath.Join(w.cfg.Dir, name, file))
		if err != nil {
			writeBundleErr(rw, http.StatusNotFound, fmt.Sprintf("no such bundle file: %s/%s", name, file))
			return
		}
		defer f.Close()
		if strings.HasSuffix(file, ".json") {
			rw.Header().Set("Content-Type", "application/json")
		} else {
			rw.Header().Set("Content-Type", "application/octet-stream")
		}
		_, _ = io.Copy(rw, f)
	})
}

// safeBundlePart rejects path traversal in bundle/file names.
func safeBundlePart(s string) bool {
	return s != "" && s != "." && s != ".." &&
		!strings.ContainsAny(s, "/\\") && !strings.Contains(s, "..")
}

func writeBundleErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
