package main

import (
	"math"
	"testing"

	"repro/internal/astopo"
)

func TestQuantileNearestRank(t *testing.T) {
	// 1..10: the p-quantile is the ceil(p·10)-th smallest sample.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// p99 of 100 samples is the 99th smallest, not the maximum: 0.99·100
	// must not round up past rank 99.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	// quantileOf sorts; a failed request (+Inf) is the worst latency.
	ss := []sample{{ms: 3}, {ms: math.Inf(1)}, {ms: 1}, {ms: 2}}
	if got := quantileOf(ss, 0.5, latencyMS); got != 2 {
		t.Errorf("median latency = %v, want 2", got)
	}
	if got := quantileOf(ss, 0.99, latencyMS); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed request = %v, want +Inf", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median(4,1,3) = %v, want 3", got)
	}
}

func TestForecastAge(t *testing.T) {
	// Four acked records: two history records acked at 10, then 40 and 70.
	acks := []int64{10, 10, 40, 70}
	for _, c := range []struct {
		name         string
		observations uint64
		want         int64
	}{
		{"covers every acked record", 4, 0},
		{"covers more than acked (records in flight)", 6, 0},
		{"misses the newest", 3, 100 - 70},
		{"misses two", 2, 100 - 40},
		{"misses history", 1, 100 - 10},
		{"covers nothing", 0, 100 - 10},
	} {
		if got := forecastAge(acks, c.observations, 100); got != c.want {
			t.Errorf("%s: age = %d, want %d", c.name, got, c.want)
		}
	}
	if got := forecastAge(nil, 0, 100); got != 0 {
		t.Errorf("no acks: age = %d, want 0", got)
	}

	// A failed read counts as the run's worst age.
	reads := []sample{{ageS: 0.5}, {ageS: math.Inf(1)}, {ageS: 2}, {ageS: 0}}
	fillFailedAges(reads, 1)
	if reads[1].ageS != 2 {
		t.Errorf("failed read age = %v, want the worst measured age 2", reads[1].ageS)
	}
	onlyFailed := []sample{{ageS: math.Inf(1)}}
	fillFailedAges(onlyFailed, 9)
	if onlyFailed[0].ageS != 9 {
		t.Errorf("failed read with no successful one = %v, want the run length 9", onlyFailed[0].ageS)
	}
}

func TestLedgerAges(t *testing.T) {
	l := newLedger()
	l.send([]astopo.AS{1, 1, 2})
	l.ack([]astopo.AS{1, 1}, 50)
	age, sent := l.read(1, 1, 80)
	if age != 30 || sent != 2 {
		t.Errorf("read = (%d, %d), want (30, 2)", age, sent)
	}
	if at, ok := l.ackTime(1, 1); !ok || at != 50 {
		t.Errorf("ackTime = (%d, %v), want (50, true)", at, ok)
	}
	if _, ok := l.ackTime(2, 0); ok {
		t.Error("ackTime of an unacked record reported ok")
	}
	if got := l.ackedCounts(); got[1] != 2 || got[2] != 0 {
		t.Errorf("ackedCounts = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.ingest", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http.ingest", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "http.ingest", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},       // runs past the parent
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60 of 100.
	if self[1] != 40 {
		t.Errorf("parent self time = %d, want 40", self[1])
	}
	if self[2] != 30 || self[4] != 40 {
		t.Errorf("leaf self times = %d, %d, want 30, 40", self[2], self[4])
	}
}
