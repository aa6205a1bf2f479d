package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"

	"repro/internal/astopo"
)

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkForecast is the gate every 200 /forecast answer must pass: the
// right target, an hour in [0,24), a day in [1,31], non-negative
// duration and magnitude, and no more observations than records sent to
// the target (acked or still in flight when the answer arrived).
func checkForecast(fc *forecastReply, as astopo.AS, sent uint64) error {
	switch {
	case fc.TargetAS != as:
		return fmt.Errorf("answered target %d for %d", fc.TargetAS, as)
	case !finite(fc.Hour) || fc.Hour < 0 || fc.Hour >= 24:
		return fmt.Errorf("hour %v outside [0,24)", fc.Hour)
	case !finite(fc.Day) || fc.Day < 1 || fc.Day > 31:
		return fmt.Errorf("day %v outside [1,31]", fc.Day)
	case !finite(fc.DurationSec) || fc.DurationSec < 0:
		return fmt.Errorf("duration %v negative or not finite", fc.DurationSec)
	case !finite(fc.Magnitude) || fc.Magnitude < 0:
		return fmt.Errorf("magnitude %v negative or not finite", fc.Magnitude)
	case fc.Observations > sent:
		return fmt.Errorf("observations %d exceed the %d records sent", fc.Observations, sent)
	}
	return nil
}

// checkPublished is the set-up gate: a target with enough history for a
// fit must be published when the boot reports ready.
func checkPublished(as astopo.AS, history uint64, published bool) error {
	if !published {
		return fmt.Errorf("AS%d not published at set-up (%d history records)", as, history)
	}
	return nil
}

// maxSendLagP99MS is the open loop's validity bound: a run whose
// generator fired its requests later than this at p99 did not offer the
// load it claims, and fails.
const maxSendLagP99MS = 50

// checkSendLag is the open loop's validity gate.
func checkSendLag(p99MS float64) error {
	if p99MS > maxSendLagP99MS {
		return fmt.Errorf("run invalid: generator send lag p99 %.1fms over %dms", p99MS, maxSendLagP99MS)
	}
	return nil
}

// checkDurability is the ack-means-durable gate: after a restart, every
// target's recovered all-time total must cover the records acked for it.
// It returns one error per target that falls short.
func checkDurability(acked, recovered map[astopo.AS]uint64) []error {
	var errs []error
	for _, as := range sortedTargets(acked) {
		if recovered[as] < acked[as] {
			errs = append(errs, fmt.Errorf("AS%d: %d records acked, %d recovered", as, acked[as], recovered[as]))
		}
	}
	return errs
}

func sortedTargets[V any](m map[astopo.AS]V) []astopo.AS {
	out := make([]astopo.AS, 0, len(m))
	for as := range m {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// outputDigest folds every number, string and bool reachable from v into
// an FNV-1a hash (map entries in sorted key order), counting the numbers
// and the non-finite ones. The digest shows whether model outputs
// changed; the counts feed the non-empty, finite gate.
type outputDigest struct {
	h         uint64
	numbers   int
	nonFinite int
}

func digestOf(vs ...any) outputDigest {
	h := fnv.New64a()
	var d outputDigest
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i))
				}
			}
		case reflect.Slice, reflect.Array:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			put(uint64(len(keys)))
			for _, k := range keys {
				walk(k)
				walk(v.MapIndex(k))
			}
		case reflect.Float32, reflect.Float64:
			f := v.Float()
			d.numbers++
			if !finite(f) {
				d.nonFinite++
			}
			put(math.Float64bits(f))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			d.numbers++
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			d.numbers++
			put(v.Uint())
		case reflect.String:
			h.Write([]byte(v.String()))
			put(uint64(v.Len()))
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		}
	}
	for _, v := range vs {
		walk(reflect.ValueOf(v))
	}
	d.h = h.Sum64()
	return d
}

// checkExperiment is the paper-repro gate for one experiment's output:
// non-empty (n items, at least one number) and every number finite.
func checkExperiment(name string, n int, out any) error {
	d := digestOf(out)
	switch {
	case n == 0 || d.numbers == 0:
		return fmt.Errorf("%s returned no results", name)
	case d.nonFinite > 0:
		return fmt.Errorf("%s returned %d non-finite numbers", name, d.nonFinite)
	}
	return nil
}
