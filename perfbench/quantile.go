package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile of the ascending samples:
// the smallest sample with at least p·n samples at or below it. It is
// exact (always one of the samples), never a histogram bucket edge.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// The epsilon keeps p·n from rounding up past an exact rank (0.99·100).
	k := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return sorted[min(max(k, 0), n-1)]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of unsorted samples.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// forecastAge is the freshness of one /forecast answer read at now.
// acks holds the target's ack times in ack order, history first; the
// answer covers the first observations of them. The age is the time
// since the oldest acked record it does not cover, and 0 when it covers
// every acked record.
func forecastAge(acks []int64, observations uint64, now int64) int64 {
	if observations >= uint64(len(acks)) {
		return 0
	}
	return now - acks[observations]
}

// fillFailedAges replaces the +Inf age marks of failed reads with the
// worst age the run measured (or worst when no read succeeded), so a
// failed read counts as the run's worst freshness.
func fillFailedAges(reads []sample, worst float64) {
	for _, s := range reads {
		if !math.IsInf(s.ageS, 1) && s.ageS > worst {
			worst = s.ageS
		}
	}
	for i := range reads {
		if math.IsInf(reads[i].ageS, 1) {
			reads[i].ageS = worst
		}
	}
}

// quantileOf is the exact p-quantile of get over samples (NaN when empty).
func quantileOf(samples []sample, p float64, get func(sample) float64) float64 {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = get(s)
	}
	sort.Float64s(vals)
	return quantile(vals, p)
}

func latencyMS(s sample) float64 { return s.ms }
func ageS(s sample) float64      { return s.ageS }

// records counts the records acked by the ingest samples.
func records(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.records
	}
	return n
}

func filter(samples []sample, keep func(sample) bool) []sample {
	var out []sample
	for _, s := range samples {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}
