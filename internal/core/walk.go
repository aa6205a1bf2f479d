package core

import (
	"time"

	"repro/internal/astopo"
	"repro/internal/trace"
)

// STContext is the target-local half of a spatiotemporal feature row,
// frozen from the attacks observed on the target so far. Its JSON keys are
// the "ctx" object of a serving snapshot.
type STContext struct {
	PrevHour   float64 `json:"prev_hour"`    // hour of the last observed attack
	PrevDay    float64 `json:"prev_day"`     // day of the last observed attack
	PrevGapSec float64 `json:"prev_gap_sec"` // last observed inter-arrival gap
	NextDueDay float64 `json:"next_due_day"` // day the revisit cadence points at
	AvgMag     float64 `json:"avg_mag"`      // mean magnitude observed so far
}

// ContextTracker observes one target's attacks in time order and freezes
// its STContext on demand. The zero value is a target with no history.
type ContextTracker struct {
	lastStart time.Time
	lastHour  float64
	lastDay   float64
	lastGap   float64
	// gapEMA is an exponential moving average (α = 0.5) of the positive
	// revisit gaps, the victim-side estimate of the attacker's cadence.
	gapEMA float64
	magSum float64
	magN   int
}

// Observe folds an attack into the context.
func (c *ContextTracker) Observe(a *trace.Attack) {
	if !c.lastStart.IsZero() {
		if gap := a.Start.Sub(c.lastStart).Seconds(); gap > 0 {
			c.lastGap = gap
			if c.gapEMA == 0 {
				c.gapEMA = gap
			} else {
				c.gapEMA = 0.5*c.gapEMA + 0.5*gap
			}
		}
	}
	c.lastStart = a.Start
	c.lastHour = float64(a.Hour())
	c.lastDay = float64(a.Day())
	c.magSum += float64(a.Magnitude())
	c.magN++
}

// Context freezes what the tracker has observed. Without a revisit gap the
// next attack is assumed due on the day of the last one.
func (c *ContextTracker) Context() STContext {
	ctx := STContext{
		PrevHour:   c.lastHour,
		PrevDay:    c.lastDay,
		PrevGapSec: c.lastGap,
		NextDueDay: c.lastDay,
	}
	if c.magN > 0 {
		ctx.AvgMag = c.magSum / float64(c.magN)
	}
	if c.gapEMA > 0 {
		due := c.lastStart.Add(time.Duration(c.gapEMA * float64(time.Second)))
		ctx.NextDueDay = float64(due.Day())
	}
	return ctx
}

// ContextOf freezes the context of a target whose history is attacks, in
// time order.
func ContextOf(attacks []trace.Attack) STContext {
	var c ContextTracker
	for i := range attacks {
		c.Observe(&attacks[i])
	}
	return c.Context()
}

// STRow builds the spatiotemporal feature row for a target's next attack
// from the component models' current predictions, the target's frozen
// context and its AS. Training rows and forecast rows both come from here,
// and it never sees the attack it predicts.
func STRow(t *Temporal, s *Spatial, ctx STContext, as astopo.AS) STFeatures {
	return STFeatures{
		TmpHour:     t.PredictHour(),
		TmpDay:      t.PredictDay(),
		TmpInterval: t.PredictInterval(),
		TmpMag:      t.PredictMagnitude(),
		SpaHour:     s.PredictHour(),
		SpaDay:      s.PredictDay(),
		SpaDur:      s.PredictDuration(),
		PrevHour:    ctx.PrevHour,
		PrevDay:     ctx.PrevDay,
		PrevGapSec:  ctx.PrevGapSec,
		NextDueDay:  ctx.NextDueDay,
		AvgMag:      ctx.AvgMag,
		TargetAS:    float64(as),
	}
}

// WalkStep is one step of the walk-forward sample builder: it builds the
// row for target as's next attack, labels it with a, and only then
// observes a into both component models and the target's context.
func WalkStep(t *Temporal, s *Spatial, ctx *ContextTracker, as astopo.AS, a *trace.Attack) STSample {
	sample := STSample{
		F:    STRow(t, s, ctx.Context(), as),
		Hour: float64(a.Hour()),
		Day:  float64(a.Day()),
		Dur:  a.DurationSec,
		Mag:  float64(a.Magnitude()),
	}
	t.Observe(a)
	s.Observe(a)
	ctx.Observe(a)
	return sample
}
