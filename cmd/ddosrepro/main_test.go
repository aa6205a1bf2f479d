package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		scale   float64
		horizon int
		ok      bool
	}{
		{"all", 1, 220, true},
		{"compare", 0.12, 220, true},
		{"drift", 1e-3, 1, true},
		{"bogus", 1, 220, false},
		{"", 1, 220, false},
		{"all", 0, 220, false},
		{"all", -0.5, 220, false},
		{"fig1", 1.01, 220, false},
		{"fig1", math.NaN(), 220, false},
		{"fig1", math.Inf(1), 220, false},
		{"fig1", 1, 0, false},
		{"fig1", 1, -5, false},
	} {
		err := checkFlags(tc.exp, tc.scale, tc.horizon)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%q, %v, %d) = %v, want ok=%v", tc.exp, tc.scale, tc.horizon, err, tc.ok)
		}
	}
	for _, name := range order {
		if err := checkFlags(name, 1, 220); err != nil {
			t.Errorf("experiment %q in the run order is rejected: %v", name, err)
		}
	}
	if len(order) != len(runners) {
		t.Errorf("run order has %d experiments, runners %d", len(order), len(runners))
	}
}
