// Command perfbench is the repository's performance benchmark. It hosts
// ddosd in-process, wired the way cmd/ddosd wires it (wal.Open, serve.New,
// RecoverWAL, AttachWAL, Handler behind an http.Server), drives it over
// loopback HTTP, checks the answers, and prints every metric by name and
// unit, ending with one JSON line. See README.md beside this file for the
// workloads, the metrics and the layer map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload firehose-binary --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the same workload with the benchmark's spans on, prints
// the per-layer tables, and writes the spans under --out.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// sizing is the scale of a run; the self-tests shrink it.
type sizing struct {
	targets    int     // Zipf target fan-out
	history    int     // records written to the WAL before boot
	conns      int     // keep-alive connections, at most nproc on the reference box
	ahead      int     // closed-loop bodies kept encoded ahead of the senders
	reproScale float64 // eval.Config.Scale of the paper reproduction
}

var defaultSizing = sizing{
	targets:    64,
	history:    16384,
	conns:      2,
	ahead:      1024,
	reproScale: 0.12,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	size     sizing
}

func main() {
	o := options{size: defaultSizing}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "firehose-binary, mixed-json or paper-repro")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 36, "seconds of measurement, split between the workload's sub-runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/runs", "scratch directory for WALs, spans and run logs")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	w := os.Stdout
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	spec, serving := servingWorkloads[o.workload]
	if !serving && o.workload != "paper-repro" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or paper-repro)\n", o.workload, strings.Join(servingNames(), ", "))
		return 2
	}
	stamp(w, o.workload, o)
	var rep *report
	var err error
	defs := endToEnd
	if serving {
		rep, err = runServing(w, o.workload, spec, o)
	} else {
		defs = reproEndToEnd
		rep, err = runRepro(w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintln(w)
	if serving && !o.trace {
		rep.printInfo(w, requestLatency)
	}
	if err := rep.print(w, defs, !o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func servingNames() []string {
	var out []string
	for name := range servingWorkloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
