// Command ddosload is the load generator and SLO gate for the online
// forecasting stack (DESIGN.md §8). It synthesizes attack-record traffic
// shaped by the botnet family profiles, drives it into a live ddosd over
// HTTP or an in-process serve.Service, optionally perturbs the stream and
// the refit path with deterministic chaos injectors, and prints a
// p50/p95/p99/max latency + shed-rate report. The exit status is the
// verdict: 0 when every configured SLO holds, 1 when one is violated,
// 2 on usage or transport errors — so CI can gate on it directly.
//
// Usage:
//
//	ddosload -records 50000                          # in-process, closed loop
//	ddosload -addr http://127.0.0.1:8080 \
//	         -mode open -rate 500 -duration 10s      # live daemon, paced
//	ddosload -addr http://127.0.0.1:8080 \
//	         -wire binary -batch 64 -records 200000  # binary batch wire
//	ddosload -records 20000 -drop 0.05 -dup 0.05 \
//	         -reorder 0.1 -slow-refit 0.3            # chaos soak
//	ddosload -records 50000 -slo-p99 5ms -slo-shed 0.2
//	ddosload -records 20000 -json > report.json   # machine-readable report
//	ddosload -addrs http://h1:8400,http://h2:8400 \
//	         -wire binary -batch 64               # spray a cluster
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ddosload: ")
	var (
		addr     = flag.String("addr", "", "ddosd base URL (e.g. http://127.0.0.1:8080); empty drives an in-process service")
		addrs    = flag.String("addrs", "", "comma-separated ddosd base URLs; sprays round-robin across cluster members (overrides -addr)")
		mode     = flag.String("mode", "closed", "driver mode: closed (back-to-back) or open (paced arrivals)")
		records  = flag.Int("records", 50000, "records to send (open loop with -duration derives this)")
		rate     = flag.Float64("rate", 1000, "open-loop arrival rate, records/second")
		rateEnd  = flag.Float64("rate-end", 0, "open-loop final rate for a linear ramp (0 = constant)")
		duration = flag.Duration("duration", 0, "open-loop run length; overrides -records via the mean rate")
		workers  = flag.Int("workers", 8, "concurrent sink calls")
		wire     = flag.String("wire", "json", "request encoding against a live daemon: json (NDJSON) or binary (application/x-ddos-batch)")
		batch    = flag.Int("batch", 1, "records per sink call (one /ingest request or one in-process IngestBatch)")
		targets  = flag.Int("targets", 16, "target fan-out")
		seed     = flag.Uint64("seed", 1, "generator and chaos seed")
		compress = flag.Float64("compress", 24, "trace-time compression factor for record timestamps")

		burstEvery   = flag.Duration("burst-every", 0, "ground-truth burst period per target in trace time (0 = no bursts)")
		burstLen     = flag.Duration("burst-len", 0, "ground-truth burst duration (0 = period/10)")
		burstGap     = flag.Duration("burst-gap", 0, "mean in-burst record spacing (0 = 200ms)")
		burstTargets = flag.Int("burst-targets", 0, "how many targets burst (0 = all)")
		burstPool    = flag.Int("burst-pool", 0, "in-burst bot-address pool size (0 = 4)")

		drop     = flag.Float64("drop", 0, "chaos: record drop probability")
		dup      = flag.Float64("dup", 0, "chaos: record duplication probability")
		reorder  = flag.Float64("reorder", 0, "chaos: record reorder probability")
		skewProb = flag.Float64("skew-prob", 0, "chaos: timestamp skew probability")
		skewMax  = flag.Duration("skew-max", time.Hour, "chaos: max injected clock skew")

		slowRefit  = flag.Float64("slow-refit", 0, "chaos: slow-refit probability (in-process only)")
		slowDelay  = flag.Duration("slow-refit-delay", 50*time.Millisecond, "chaos: injected refit delay")
		failRefit  = flag.Float64("fail-refit", 0, "chaos: refit failure probability (in-process only)")
		refitEvery = flag.Int("refit-every", 8, "in-process service: refit after this many records per target")
		window     = flag.Int("window", 256, "in-process service: rolling window capacity")
		queue      = flag.Int("queue", 256, "in-process service: refit queue depth")
		epochs     = flag.Int("nar-epochs", 20, "in-process service: NAR training epochs per refit")

		sloP50   = flag.Duration("slo-p50", 0, "SLO: p50 latency ceiling (0 = unchecked)")
		sloP95   = flag.Duration("slo-p95", 0, "SLO: p95 latency ceiling (0 = unchecked)")
		sloP99   = flag.Duration("slo-p99", 0, "SLO: p99 latency ceiling (0 = unchecked)")
		sloMax   = flag.Duration("slo-max", 0, "SLO: max latency ceiling (0 = unchecked)")
		sloShed  = flag.Float64("slo-shed", loadgen.Unchecked, "SLO: shed-rate ceiling in [0,1] (-1 = unchecked)")
		sloErr   = flag.Float64("slo-errors", 0, "SLO: error-rate ceiling in [0,1] (-1 = unchecked)")
		sloRate  = flag.Float64("slo-throughput", 0, "SLO: attempted records/second floor (0 = unchecked)")
		quantify = flag.Bool("v", false, "also dump the raw latency histogram")
		jsonOut  = flag.Bool("json", false, "emit the report (plus chaos counters and SLO verdict) as JSON on stdout")
	)
	flag.Parse()

	if *wire != "json" && *wire != "binary" {
		log.Printf("unknown -wire %q (want json or binary)", *wire)
		os.Exit(2)
	}
	if *batch < 1 {
		log.Printf("-batch must be at least 1, got %d", *batch)
		os.Exit(2)
	}
	cfg := loadgen.Config{Records: *records, Workers: *workers, Rate: *rate, RateEnd: *rateEnd, Batch: *batch}
	switch *mode {
	case "closed":
		cfg.Mode = loadgen.ClosedLoop
	case "open":
		cfg.Mode = loadgen.OpenLoop
		if *duration > 0 {
			mean := *rate
			if *rateEnd > 0 {
				mean = (*rate + *rateEnd) / 2
			}
			cfg.Records = int(duration.Seconds() * mean)
			if cfg.Records < 1 {
				cfg.Records = 1
			}
		}
	default:
		log.Printf("unknown -mode %q (want closed or open)", *mode)
		os.Exit(2)
	}

	// Sink: live daemon(s) or in-process service.
	var urls []string
	if *addrs != "" {
		for _, u := range strings.Split(*addrs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			log.Printf("-addrs %q names no URLs", *addrs)
			os.Exit(2)
		}
	} else if *addr != "" {
		urls = []string{*addr}
	}
	var sink loadgen.Sink
	if len(urls) > 0 {
		if *slowRefit > 0 || *failRefit > 0 {
			log.Print("-slow-refit/-fail-refit need the in-process service; ignoring against a live daemon")
		}
		if len(urls) == 1 {
			hs := loadgen.NewHTTPSink(urls[0])
			hs.Wire = *wire
			sink = hs
		} else {
			sink = loadgen.NewMultiHTTPSink(urls, *wire)
		}
	} else {
		svcCfg := serve.Config{
			Window:     *window,
			RefitEvery: *refitEvery,
			QueueDepth: *queue,
			Seed:       *seed,
			Temporal:   core.TemporalConfig{MaxP: 1, MaxQ: 1},
			Spatial: core.SpatialConfig{
				Delays: []int{2},
				Hidden: []int{2},
				Train:  nn.TrainConfig{Epochs: *epochs},
			},
		}
		if *slowRefit > 0 || *failRefit > 0 {
			faults := &chaos.RefitFaults{
				Seed: *seed, SlowProb: *slowRefit, Delay: *slowDelay, FailProb: *failRefit,
			}
			svcCfg.WrapFit = faults.Wrap
			defer func() {
				log.Printf("chaos refits: %d slowed, %d failed", faults.Slowed(), faults.Failed())
			}()
		}
		svc := serve.New(svcCfg)
		defer svc.Close()
		sink = loadgen.ServiceSink{Svc: svc}
	}

	// Record stream: profile-shaped generator, optionally chaos-wrapped.
	gen := loadgen.NewGenerator(loadgen.GenConfig{
		Targets: *targets, Seed: *seed, TimeCompress: *compress,
		Burst: loadgen.BurstConfig{
			Every: *burstEvery, Len: *burstLen, Gap: *burstGap,
			Targets: *burstTargets, BotPool: *burstPool,
		},
	})
	src := gen.Next
	var faults *chaos.StreamFaults
	if *drop > 0 || *dup > 0 || *reorder > 0 || *skewProb > 0 {
		faults = &chaos.StreamFaults{
			Seed: *seed, DropProb: *drop, DupProb: *dup,
			ReorderProb: *reorder, SkewProb: *skewProb, SkewMax: *skewMax,
		}
		src = faults.Stream(src)
	}

	log.Printf("driving %d records (%s, %d workers, %d targets) into %s",
		cfg.Records, cfg.Mode, cfg.Workers, *targets, sinkName(urls))
	rep, err := loadgen.Run(cfg, src, sink)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	violations := rep.Check(loadgen.SLO{
		P50: *sloP50, P95: *sloP95, P99: *sloP99, Max: *sloMax,
		MaxShedRate: *sloShed, MaxErrorRate: *sloErr, MinThroughput: *sloRate,
	})

	if *jsonOut {
		writeJSONReport(rep, faults, violations, provenanceJSON{
			Build:   obs.Provenance(),
			Mode:    *mode,
			Wire:    *wire,
			Batch:   *batch,
			Workers: *workers,
			Records: cfg.Records,
			Targets: *targets,
			Seed:    *seed,
			Sink:    sinkName(urls),
		})
	} else {
		fmt.Print(rep)
		if faults != nil {
			fmt.Printf("chaos       dropped %d, duplicated %d, reordered %d, skewed %d\n",
				faults.Dropped(), faults.Duplicated(), faults.Reordered(), faults.Skewed())
		}
		if *quantify {
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
				fmt.Printf("  q%-5g %v\n", q*100, rep.Quantile(q))
			}
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			log.Printf("SLO VIOLATION: %v", v)
		}
		os.Exit(1)
	}
	log.Print("SLO: pass")
}

// provenanceJSON stamps the JSON artifact with what produced the numbers:
// the exact build (toolchain, commit) and the wire/batch/concurrency
// configuration, so archived BENCH/SLO artifacts stay comparable.
type provenanceJSON struct {
	Build   obs.BuildProvenance `json:"build"`
	Mode    string              `json:"mode"`
	Wire    string              `json:"wire"`
	Batch   int                 `json:"batch"`
	Workers int                 `json:"workers"`
	Records int                 `json:"records"`
	Targets int                 `json:"targets"`
	Seed    uint64              `json:"seed"`
	Sink    string              `json:"sink"`
}

// chaosJSON is the stream-fault section of the JSON report.
type chaosJSON struct {
	Dropped    int64 `json:"dropped"`
	Duplicated int64 `json:"duplicated"`
	Reordered  int64 `json:"reordered"`
	Skewed     int64 `json:"skewed"`
}

// writeJSONReport prints the machine-readable run artifact on stdout: the
// report body, chaos counters when injectors ran, and the SLO verdict
// (log output stays on stderr, so stdout is valid JSON for CI to archive).
func writeJSONReport(rep *loadgen.Report, faults *chaos.StreamFaults, violations []error, prov provenanceJSON) {
	out := struct {
		Report     *loadgen.Report `json:"report"`
		Provenance provenanceJSON  `json:"provenance"`
		Chaos      *chaosJSON      `json:"chaos,omitempty"`
		SLOPass    bool            `json:"slo_pass"`
		Violations []string        `json:"slo_violations,omitempty"`
	}{Report: rep, Provenance: prov, SLOPass: len(violations) == 0}
	if faults != nil {
		out.Chaos = &chaosJSON{
			Dropped:    faults.Dropped(),
			Duplicated: faults.Duplicated(),
			Reordered:  faults.Reordered(),
			Skewed:     faults.Skewed(),
		}
	}
	for _, v := range violations {
		out.Violations = append(out.Violations, v.Error())
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		log.Print(err)
		os.Exit(2)
	}
}

func sinkName(urls []string) string {
	if len(urls) > 0 {
		return strings.Join(urls, ", ")
	}
	return "in-process serve.Service"
}
