package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/eval"
)

// reproPass is one run of the four paper experiments on a built world.
type reproPass struct {
	fig1S, fig2S, fig34S, compareS float64
	predictions                    int
	digest                         outputDigest
	errs                           []error
}

func (p reproPass) total() float64 { return p.fig1S + p.fig2S + p.fig34S + p.compareS }

// buildEnv times eval.BuildEnv at the workload's fixed scale.
func buildEnv(o options, rec *recorder) (*eval.Env, float64, error) {
	start := rec.now()
	t0 := time.Now()
	env, err := eval.BuildEnv(eval.Config{Seed: o.seed, Scale: o.size.reproScale})
	took := time.Since(t0).Seconds()
	rec.add(span{Name: "eval.build_env", Start: start, End: rec.now()})
	return env, took, err
}

// runExperiments runs Figure 1, Figure 2, Figures 3-4 and the §VII-A
// comparison once, timing each call and gating its output.
func runExperiments(env *eval.Env, rec *recorder) reproPass {
	var p reproPass
	timed := func(name string, dst *float64, fn func() (int, any, error)) any {
		start := rec.now()
		t0 := time.Now()
		n, out, err := fn()
		*dst = time.Since(t0).Seconds()
		rec.add(span{Name: name, Start: start, End: rec.now()})
		if err == nil {
			err = checkExperiment(name, n, out)
		}
		p.errs = append(p.errs, err)
		return out
	}
	f1 := timed("eval.fig1", &p.fig1S, func() (int, any, error) {
		r, err := eval.RunFigure1(env, nil)
		return len(r), r, err
	})
	f2 := timed("eval.fig2", &p.fig2S, func() (int, any, error) {
		r, err := eval.RunFigure2(env, nil, 5)
		return len(r), r, err
	})
	f34 := timed("eval.fig34", &p.fig34S, func() (int, any, error) {
		r, err := eval.RunFigure34(env, eval.Figure34Config{})
		if r == nil {
			return 0, r, err
		}
		p.predictions = r.N
		return r.N, r, err
	})
	cmp := timed("eval.compare", &p.compareS, func() (int, any, error) {
		r, err := eval.RunComparison(env, 5)
		return len(r), r, err
	})
	p.digest = digestOf(f1, f2, f34, cmp)
	return p
}

// runRepro is the paper-repro workload: build the world minBoots times
// (set-up), then repeat the four experiments on the last world until
// o.seconds have passed, at least once.
func runRepro(w io.Writer, o options) (*report, error) {
	rep := newReport()
	var rec *recorder
	if o.trace {
		rec = newRecorder(newClock())
	}
	var env *eval.Env
	var builds []float64
	for k := 0; k < minBoots; k++ {
		env = nil
		runtime.GC()
		var took float64
		var err error
		if env, took, err = buildEnv(o, rec); err != nil {
			return nil, fmt.Errorf("build env: %w", err)
		}
		builds = append(builds, took)
	}
	rep.set("setup_s", median(builds), fmt.Sprintf("median of %d eval.BuildEnv calls", len(builds)))
	fmt.Fprintf(w, "world: %d verified attacks, %d families (scale %g)\n", env.Dataset.Len(), len(env.Dataset.Families()), o.size.reproScale)

	var passes []float64
	var last reproPass
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		p := runExperiments(env, rec)
		for _, err := range p.errs {
			rep.gate(err)
		}
		if len(passes) > 0 && p.digest.h != last.digest.h {
			fmt.Fprintf(w, "note: pass %d digest %016x differs from the previous %016x\n", len(passes)+1, p.digest.h, last.digest.h)
		}
		passes = append(passes, p.total())
		last = p
	}
	rep.set("repro_s", median(passes), fmt.Sprintf("median of %d passes", len(passes)))
	fmt.Fprintf(w, "output digest %016x over %d numbers (reported, not gated)\n", last.digest.h, last.digest.numbers)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "")
	runtime.KeepAlive(env)
	if rec != nil {
		setReproLayers(rep, median(builds), last)
	}
	return rep, nil
}

// reproLayers runs one paper-repro pass inside a traced serving run, so
// the eval layer (with botnet, astopo, features and the batch grid
// searches) is measured by the workloads the benchmark lists.
func reproLayers(w io.Writer, rep *report, o options, rec *recorder) error {
	env, took, err := buildEnv(o, rec)
	if err != nil {
		return fmt.Errorf("build env: %w", err)
	}
	p := runExperiments(env, rec)
	for _, err := range p.errs {
		rep.gate(err)
	}
	setReproLayers(rep, took, p)
	fmt.Fprintf(w, "\npaper-repro pass: %d attacks, %.2fs of experiments, output digest %016x over %d numbers (reported, not gated)\n",
		env.Dataset.Len(), p.total(), p.digest.h, p.digest.numbers)
	return nil
}

func setReproLayers(rep *report, buildS float64, p reproPass) {
	rep.set("eval.build_env_s", buildS, "")
	rep.set("eval.fig1_s", p.fig1S, "")
	rep.set("eval.fig2_s", p.fig2S, "")
	rep.set("eval.fig34_s", p.fig34S, "")
	rep.set("eval.compare_s", p.compareS, "")
	rep.set("eval.fig34_predictions", float64(p.predictions), "")
}
