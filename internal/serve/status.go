package serve

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/astopo"
	"repro/internal/obs"
	"repro/internal/wal"
)

// /statusz: one node's full operational picture in a single JSON
// document — the per-node section the cluster router's fleet fan-out
// aggregates (DESIGN.md §14). Everything here is already exposed
// piecemeal (/healthz, /metrics, /accuracy, /alerts); /statusz is the
// one-stop read an operator or the watchdog bundle wants.

// WALStatus is the /statusz WAL section (wal.Stats in stable snake_case).
type WALStatus struct {
	ActiveSeq      uint64 `json:"active_seq"`
	ActiveBytes    int64  `json:"active_bytes"`
	SealedSegments int    `json:"sealed_segments"`
	SealedBytes    int64  `json:"sealed_bytes"`
	Appends        uint64 `json:"appends"`
	AppendedBytes  uint64 `json:"appended_bytes"`
	TotalSegments  int    `json:"total_segments"`
	DiskBytes      int64  `json:"disk_bytes"`
}

func walStatus(st wal.Stats) *WALStatus {
	return &WALStatus{
		ActiveSeq:      st.ActiveSeq,
		ActiveBytes:    st.ActiveBytes,
		SealedSegments: st.SealedSegments,
		SealedBytes:    st.SealedBytes,
		Appends:        st.Appends,
		AppendedBytes:  st.AppendedBytes,
		TotalSegments:  st.TotalSegments(),
		DiskBytes:      st.DiskBytes(),
	}
}

// AccuracyWinner names the best model for one measure in the current
// accuracy window.
type AccuracyWinner struct {
	Model string  `json:"model"`
	Value float64 `json:"value"`
}

// AccuracyStatus is the /statusz accuracy section: the full windowed
// snapshot plus the per-measure winners so a fleet view can answer
// "which model is winning where" without re-deriving it.
type AccuracyStatus struct {
	obs.AccuracySnapshot
	Winners map[string]AccuracyWinner `json:"winners,omitempty"`
}

// ModelLayerStatus is the /statusz online-model-layer section: how the
// fleet's champions are distributed and how much of the refit volume is
// incremental (DESIGN.md §15).
type ModelLayerStatus struct {
	IncrementalEnabled bool `json:"incremental_enabled"`
	// TrackedTargets counts targets with a live promotion accuracy window.
	TrackedTargets int `json:"tracked_targets"`
	// Champions maps measure → champion kind → number of published targets
	// serving that kind for the measure.
	Champions map[string]map[string]int `json:"champions,omitempty"`
	// IncrementalServing counts published targets whose serving generation
	// came from the incremental path.
	IncrementalServing int `json:"incremental_serving"`
}

// StaleTarget is one target waiting on the refit freshness deadline.
type StaleTarget struct {
	AS astopo.AS `json:"as"`
	// Unread counts the records ingested since the target's last refit read.
	Unread int `json:"unread"`
	// AgeSec is how long the oldest of them has waited.
	AgeSec float64 `json:"age_s"`
}

// RefitStatus is the /statusz refit section: which targets are past the
// freshness deadline (staleAfter) and not yet refit.
type RefitStatus struct {
	// StaleTargets counts targets holding at least MinWindow records whose
	// oldest unread record is staleAfter old or older.
	StaleTargets int `json:"stale_targets"`
	// Stalest lists the maxStalest targets with the oldest unread records,
	// oldest first, stale or not.
	Stalest []StaleTarget `json:"stalest,omitempty"`
}

// maxStalest bounds the refit section's stalest list.
const maxStalest = 5

// NodeStatus is the /statusz response body for one node.
type NodeStatus struct {
	Health   Health              `json:"health"`
	WAL      *WALStatus          `json:"wal,omitempty"`
	Detect   AlertsReport        `json:"detect"`
	Accuracy AccuracyStatus      `json:"accuracy"`
	Models   ModelLayerStatus    `json:"models"`
	Refit    RefitStatus         `json:"refit"`
	Runtime  obs.RuntimeSnapshot `json:"runtime"`
	Build    obs.BuildProvenance `json:"build"`
}

// NodeStatus captures this node's full status.
func (s *Service) NodeStatus() NodeStatus {
	st := NodeStatus{
		Health:  s.health(),
		Runtime: obs.ReadRuntime(),
		Build:   obs.Provenance(),
	}
	if ws, ok := s.WALStats(); ok {
		st.WAL = walStatus(ws)
	}
	if d := s.store.Detector(); d != nil {
		stats := d.Stats()
		st.Detect = AlertsReport{Enabled: true, Stats: &stats, Alerts: d.Recent(maxStatuszAlerts)}
	}
	snap := s.acc.Snapshot()
	st.Accuracy = AccuracyStatus{AccuracySnapshot: *snap, Winners: accuracyWinners(*snap)}
	st.Models = s.modelLayerStatus()
	st.Refit = s.refitStatus(monoNow())
	return st
}

// refitStatus reads the refit section at monotonic time now (monoNow).
func (s *Service) refitStatus(now time.Duration) RefitStatus {
	var rs RefitStatus
	var unread []StaleTarget
	s.store.eachUnread(s.cfg.MinWindow, func(as astopo.AS, stamp time.Duration, n int) {
		if now-stamp >= staleAfter {
			rs.StaleTargets++
		}
		unread = append(unread, StaleTarget{AS: as, Unread: n, AgeSec: (now - stamp).Seconds()})
	})
	sort.Slice(unread, func(i, j int) bool {
		if unread[i].AgeSec != unread[j].AgeSec {
			return unread[i].AgeSec > unread[j].AgeSec
		}
		return unread[i].AS < unread[j].AS
	})
	if len(unread) > maxStalest {
		unread = unread[:maxStalest]
	}
	rs.Stalest = unread
	return rs
}

// modelLayerStatus aggregates the published snapshot's champion
// composition and refit provenance.
func (s *Service) modelLayerStatus() ModelLayerStatus {
	ms := ModelLayerStatus{
		IncrementalEnabled: s.cfg.IncrementalRefit,
		TrackedTargets:     s.promo.Size(),
	}
	champs := make(map[string]map[string]int)
	add := func(measure, kind string) {
		m := champs[measure]
		if m == nil {
			m = make(map[string]int)
			champs[measure] = m
		}
		m[champOr(kind)]++
	}
	for _, as := range s.reg.Targets() {
		tm, ok := s.reg.Lookup(as)
		if !ok {
			continue
		}
		add(MeasureMagnitude, tm.Prov.Champions.Magnitude)
		add(MeasureDuration, tm.Prov.Champions.Duration)
		add(MeasureTimestamp, tm.Prov.Champions.Timestamp)
		if tm.Prov.Refit == refitIncremental {
			ms.IncrementalServing++
		}
	}
	if len(champs) > 0 {
		ms.Champions = champs
	}
	return ms
}

// maxStatuszAlerts bounds the detect section: /statusz is a fleet
// fan-out payload, not the full alert ring (/alerts serves that).
const maxStatuszAlerts = 8

// accuracyWinners picks the window's best model per measure: lowest mean
// relative error for magnitude and duration, highest hit rate for
// timestamp. Models with no scored samples for a measure don't compete.
func accuracyWinners(snap obs.AccuracySnapshot) map[string]AccuracyWinner {
	winners := make(map[string]AccuracyWinner)
	pick := func(measure, model string, value float64, better func(new, cur float64) bool) {
		cur, ok := winners[measure]
		if !ok || better(value, cur.Value) {
			winners[measure] = AccuracyWinner{Model: model, Value: value}
		}
	}
	lower := func(new, cur float64) bool { return new < cur }
	higher := func(new, cur float64) bool { return new > cur }
	for model, sum := range snap.Models {
		if sum.Magnitude.Samples > 0 {
			pick("magnitude", model, sum.Magnitude.MeanRelErr, lower)
		}
		if sum.Duration.Samples > 0 {
			pick("duration", model, sum.Duration.MeanRelErr, lower)
		}
		if sum.Timestamp.Samples > 0 {
			pick("timestamp", model, sum.Timestamp.Rate, higher)
		}
	}
	if len(winners) == 0 {
		return nil
	}
	return winners
}

func (s *Service) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.NodeStatus()
	writeJSON(w, http.StatusOK, &st)
}

// handleBundle serves /debug/bundle: the watchdog's diagnostics-bundle
// ring, or a JSON 404 when no watchdog is running (-watchdog-dir unset).
func (s *Service) handleBundle(w http.ResponseWriter, r *http.Request) {
	wd := s.watchdog.Load()
	if wd == nil {
		writeError(w, http.StatusNotFound, "watchdog disabled (start ddosd with -watchdog-dir)")
		return
	}
	wd.Handler().ServeHTTP(w, r)
}
