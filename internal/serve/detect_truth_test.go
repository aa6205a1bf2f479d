package serve_test

// Ground-truth validation for the streaming detection tier (DESIGN.md
// §13): the load generator overlays an analytic burst schedule on its
// baseline profile traffic and labels every record it emits, so detector
// quality is measured against known truth instead of asserted —
// record-level precision and recall over the verdicts the service stored,
// and detection latency from each burst's analytic start to its first
// raise alert. A pure-baseline profile additionally pins the
// zero-false-positive contract: profile-shaped traffic alone must never
// trip an alert.

import (
	"sort"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/loadgen"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/trace"
)

// detectGenConfig is the labeled-burst profile the validation test
// drives: 4 targets whose bursts (90s long, ~2.5 rec/s, 4-address bot
// pool) recur every 40 trace-minutes, staggered by a quarter period, over
// compressed baseline pacing of roughly one record per 6-45s per target.
func detectGenConfig() loadgen.GenConfig {
	return loadgen.GenConfig{
		Targets:      4,
		Seed:         5,
		TimeCompress: 1500,
		Burst: loadgen.BurstConfig{
			Every:   40 * time.Minute,
			Len:     90 * time.Second,
			Gap:     400 * time.Millisecond,
			BotPool: 4,
		},
	}
}

// detectServeConfig is the service under test: refits disabled (the
// detector, not the modeling pipeline, is on trial) and windows big
// enough to retain every record for the read-back join.
func detectServeConfig() serve.Config {
	return serve.Config{
		Shards:    4,
		Window:    16384,
		MinWindow: 1 << 20,
		Seed:      7,
		Detect:    &detect.Config{AlertCap: 8192},
		Temporal:  core.TemporalConfig{MaxP: 1, MaxQ: 1},
		Spatial: core.SpatialConfig{
			Delays: []int{2},
			Hidden: []int{2},
			Train:  nn.TrainConfig{Epochs: 8},
		},
	}
}

// ingestOne applies one record as a batch of one and reports whether it
// was new.
func ingestOne(svc *serve.Service, a *trace.Attack) (bool, error) {
	res, err := svc.IngestBatch([]trace.Attack{*a}, nil)
	return res.Ingested == 1, err
}

func TestDetectGroundTruth(t *testing.T) {
	const records = 24000
	svc := serve.New(detectServeConfig())
	defer svc.Close()
	gen := loadgen.NewGenerator(detectGenConfig())

	var until time.Time
	for i := 0; i < records; i++ {
		a := gen.Next()
		if a.Start.After(until) {
			until = a.Start
		}
		if ok, err := ingestOne(svc, a); err != nil || !ok {
			t.Fatalf("record %d (ID %d): accepted=%v err=%v", i, a.ID, ok, err)
		}
	}

	// Record-level confusion matrix over the verdicts the store holds,
	// joined with the generator's ground-truth labels by record ID.
	var stored []trace.Attack
	for _, as := range gen.Targets() {
		w, _ := svc.Store().Window(as)
		stored = append(stored, w...)
	}
	if len(stored) != records {
		t.Fatalf("read back %d records, drove %d (window eviction breaks the join)", len(stored), records)
	}
	var tp, fp, fn, attack int
	for i := range stored {
		truth := gen.Label(stored[i].ID)
		flagged := stored[i].Verdict != 0
		if truth {
			attack++
		}
		switch {
		case flagged && truth:
			tp++
		case flagged && !truth:
			fp++
		case !flagged && truth:
			fn++
		}
	}
	if attack == 0 {
		t.Fatal("generator produced no attack-phase records")
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	t.Logf("records=%d attack=%d tp=%d fp=%d fn=%d precision=%.4f recall=%.4f",
		records, attack, tp, fp, fn, precision, recall)
	if precision < 0.9 {
		t.Errorf("precision %.4f below the 0.9 gate (tp=%d fp=%d)", precision, tp, fp)
	}
	if recall < 0.8 {
		t.Errorf("recall %.4f below the 0.8 gate (tp=%d fn=%d)", recall, tp, fn)
	}

	// Detection latency: every generated burst's first record lands
	// exactly on its analytic start, so the gap from interval start to the
	// first raise alert inside the interval is the tier's true latency.
	// Only intervals the finite run actually populated with a full burst
	// are scored.
	d := svc.Store().Detector()
	raises := d.Recent(0)
	recsOf := make(map[astopo.AS][]time.Time)
	for i := range stored {
		if gen.Label(stored[i].ID) {
			recsOf[stored[i].TargetAS] = append(recsOf[stored[i].TargetAS], stored[i].Start)
		}
	}
	var latencies []time.Duration
	for _, iv := range gen.BurstIntervals(until) {
		n := 0
		for _, ts := range recsOf[iv.Target] {
			if !ts.Before(iv.Start) && ts.Before(iv.End) {
				n++
			}
		}
		if n < 20 {
			continue // tail interval the run never (fully) reached
		}
		first := time.Time{}
		for _, a := range raises {
			if a.Cleared || a.Target != iv.Target || a.At.Before(iv.Start) || !a.At.Before(iv.End) {
				continue
			}
			if first.IsZero() || a.At.Before(first) {
				first = a.At
			}
		}
		if first.IsZero() {
			t.Errorf("burst %v @ %v (%d records) never raised an alert", iv.Target, iv.Start, n)
			continue
		}
		latencies = append(latencies, first.Sub(iv.Start))
	}
	if len(latencies) < 8 {
		t.Fatalf("only %d scoreable burst intervals; the run is too short to gate latency", len(latencies))
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	median := latencies[len(latencies)/2]
	t.Logf("bursts=%d median detection latency=%v (min=%v max=%v)",
		len(latencies), median, latencies[0], latencies[len(latencies)-1])
	if median > 10*time.Second {
		t.Errorf("median detection latency %v above the 10s gate", median)
	}

	// The detector saw every record and its books balance.
	st := d.Stats()
	if st.Records != records {
		t.Errorf("detector observed %d records, drove %d", st.Records, records)
	}
	if st.Raised == 0 || st.Cleared == 0 {
		t.Errorf("detector never cycled: raised=%d cleared=%d", st.Raised, st.Cleared)
	}
	if st.Active < 0 || st.Active != int64(st.Raised)-int64(st.Cleared) {
		t.Errorf("active %d != raised %d - cleared %d", st.Active, st.Raised, st.Cleared)
	}
}

// TestDetectPureBaseline pins the zero-false-positive contract: the same
// profile traffic with no bursts scheduled must produce no alerts and no
// flagged records at all.
func TestDetectPureBaseline(t *testing.T) {
	svc := serve.New(detectServeConfig())
	defer svc.Close()
	genCfg := detectGenConfig()
	genCfg.Burst = loadgen.BurstConfig{}
	gen := loadgen.NewGenerator(genCfg)

	const records = 8000
	for i := 0; i < records; i++ {
		if ok, err := ingestOne(svc, gen.Next()); err != nil || !ok {
			t.Fatalf("record %d: accepted=%v err=%v", i, ok, err)
		}
	}
	if st := svc.Store().Detector().Stats(); st.Raised != 0 {
		t.Fatalf("pure-baseline traffic raised %d alerts: %+v", st.Raised, svc.Store().Detector().Recent(10))
	}
	for _, as := range gen.Targets() {
		w, _ := svc.Store().Window(as)
		for i := range w {
			if w[i].Verdict != 0 {
				t.Fatalf("baseline record ID %d stored with verdict %#x", w[i].ID, w[i].Verdict)
			}
		}
	}
}
