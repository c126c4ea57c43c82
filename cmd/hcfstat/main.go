// Command hcfstat runs one (scenario, engine, threads) configuration on
// the deterministic simulator as one harness.RunPointWith call and prints
// the view -format selects:
//
//	text, json                 throughput, abort taxonomy, lock, combining and
//	                           memory statistics, HCF phase breakdown
//	metrics, metrics-json,     interval series and latency percentiles per class
//	csv, prom                  and completion path
//	trace, trace-json, chrome  lifecycle trace: attempt outcomes with abort
//	                           attribution, helping, hot lines (chrome: Perfetto)
//
// Usage:
//
//	hcfstat -scenario sharded -shards 4 -engine HCF-S -threads 36 -format json
//	hcfstat -scenario avl -find 0 -theta 0.9 -engine TLE -format metrics
//	hcfstat -scenario pqueue -engine TLE+FC -format trace -timeline 60
//	hcfstat -scenario hashtable -format chrome > trace.json
//	hcfstat -scenario elastic -hot 90 -threads 36 -decisions 5
//
// -interval and -serve are read only by the metrics formats, -timeline
// only by -format trace. -limit N keeps the last N lifecycle events per
// thread: the trace formats always trace (0 keeps every event), the
// metrics formats trace only when N > 0, adding trace health to the
// report and hot lines to -serve. A flag the scenario or format does not
// read is an error, and so is an invariant violation. The elastic
// scenario runs HCF-E with its rebalancer, in text or json only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"hcf/internal/core"
	"hcf/internal/harness"
	"hcf/internal/htm"
	"hcf/internal/metrics"
	"hcf/internal/trace"
	"hcf/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcfstat:", err)
		os.Exit(1)
	}
}

// workload holds the flag values a scenario constructor reads.
type workload struct {
	find, shards, cross, hot int
	theta                    float64
}

// scenario is one entry of the scenario table: the flags it reads beyond
// the common ones, and its constructor (nil for elastic, which has its
// own runner).
type scenario struct {
	reads []string
	build func(w workload) harness.Scenario
}

// lookupScenario is the scenario table.
func lookupScenario(name string) (scenario, error) {
	switch name {
	case "hashtable":
		return scenario{[]string{"engine", "find"}, func(w workload) harness.Scenario {
			return harness.HashTableScenario(w.find, 16384)
		}}, nil
	case "sharded":
		return scenario{[]string{"engine", "find", "shards", "cross", "hot"}, func(w workload) harness.Scenario {
			return harness.ShardedHashTableScenario(w.find, 16384, w.shards, w.cross, w.hot)
		}}, nil
	case "elastic":
		return scenario{[]string{"find", "hot", "decisions"}, nil}, nil
	case "avl":
		return scenario{[]string{"engine", "find", "theta"}, func(w workload) harness.Scenario {
			return harness.AVLScenario(w.find, 1024, w.theta, harness.AVLCombining)
		}}, nil
	case "pqueue":
		return scenario{[]string{"engine"}, func(workload) harness.Scenario {
			return harness.PQScenario(50, 1<<20, 4096)
		}}, nil
	case "stack":
		return scenario{[]string{"engine"}, func(workload) harness.Scenario {
			return harness.StackScenario(1024)
		}}, nil
	case "deque":
		return scenario{[]string{"engine"}, func(workload) harness.Scenario {
			return harness.DequeScenario(2048, true)
		}}, nil
	case "sortedlist":
		return scenario{[]string{"engine", "find"}, func(w workload) harness.Scenario {
			return harness.SortedListScenario(w.find, 512)
		}}, nil
	}
	return scenario{}, fmt.Errorf("unknown scenario %q (want hashtable, sharded, elastic, avl, pqueue, stack, deque or sortedlist)", name)
}

// family is what a -format shows of the point: the Result, the metrics
// report or the lifecycle trace.
type family int

const (
	resultFamily family = iota
	metricsFamily
	traceFamily
)

var formats = map[string]family{
	"text": resultFamily, "json": resultFamily,
	"metrics": metricsFamily, "metrics-json": metricsFamily, "csv": metricsFamily, "prom": metricsFamily,
	"trace": traceFamily, "trace-json": traceFamily, "chrome": traceFamily,
}

// familyReads lists the flags each family reads beyond the common ones
// and the scenario's; -format trace also reads -timeline.
var familyReads = [...][]string{
	resultFamily:  nil,
	metricsFamily: {"interval", "serve", "limit"},
	traceFamily:   {"limit"},
}

// checkFlags rejects every flag set on the command line that the chosen
// scenario and format would silently ignore.
func checkFlags(fs *flag.FlagSet, scen, format string, sc scenario) error {
	reads := map[string]bool{"scenario": true, "format": true, "threads": true,
		"horizon": true, "seed": true, "cpuprofile": true}
	for _, n := range append(sc.reads, familyReads[formats[format]]...) {
		reads[n] = true
	}
	reads["timeline"] = format == "trace"
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("-scenario %s -format %s does not use %s", scen, format, strings.Join(bad, ", "))
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcfstat", flag.ContinueOnError)
	var (
		scenName = fs.String("scenario", "hashtable", "hashtable | sharded | elastic | avl | pqueue | stack | deque | sortedlist")
		engName  = fs.String("engine", "HCF", "Lock | TLE | FC | SCM | TLE+FC | HCF | HCF-S (elastic always runs HCF-E)")
		threads  = fs.Int("threads", 18, "worker threads")
		find     = fs.Int("find", 40, "find percentage (hashtable, sharded, elastic, avl, sortedlist)")
		shards   = fs.Int("shards", 4, "shard count (sharded)")
		cross    = fs.Int("cross", 0, "cross-shard scan percentage (sharded)")
		hot      = fs.Int("hot", 0, "percentage of keys skewed onto shard 0 (sharded); drifting hot-set percentage (elastic)")
		decs     = fs.Int("decisions", 8, "elastic: print the last N rebalancer decisions")
		theta    = fs.Float64("theta", 0.9, "zipf skew (avl)")
		horizon  = fs.Int64("horizon", 200_000, "virtual cycles")
		seed     = fs.Uint64("seed", 1, "workload seed")
		format   = fs.String("format", "text", "text | json | metrics | metrics-json | csv | prom | trace | trace-json | chrome")
		interval = fs.Int64("interval", 10_000, "metrics formats: sampling interval (virtual cycles)")
		serveAt  = fs.String("serve", "", "metrics formats: after the run, serve the report on host:port (/debug endpoints, including Prometheus via ?format=prom) until interrupted")
		limit    = fs.Int("limit", 0, "metrics and trace formats: keep the last N lifecycle events per thread (trace formats: 0 keeps all; metrics formats: 0 attaches no tracer)")
		timeline = fs.Int("timeline", 0, "-format trace: also print the first N raw events")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := lookupScenario(*scenName)
	if err != nil {
		return err
	}
	fam, ok := formats[*format]
	if !ok {
		return fmt.Errorf("unknown format %q (want text, json, metrics, metrics-json, csv, prom, trace, trace-json or chrome)", *format)
	}
	if err := checkFlags(fs, *scenName, *format, sc); err != nil {
		return err
	}
	if sc.build == nil && fam != resultFamily {
		return fmt.Errorf("-scenario %s supports only -format text and json", *scenName)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := harness.Config{Horizon: *horizon, Seed: *seed}
	if sc.build == nil {
		// The elastic report has its own runner (open-loop point with the
		// rebalancer stepped from thread 0) and its own longer default
		// horizon: only forward -horizon when the user actually set it.
		cfg.Horizon = 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "horizon" {
				cfg.Horizon = *horizon
			}
		})
		return runElastic(*find, *hot, *threads, cfg, *decs, *format == "json")
	}
	if err := harness.ValidateEngineNames([]string{*engName}); err != nil {
		return err
	}

	var opts harness.PointOptions
	switch fam {
	case metricsFamily:
		opts = harness.PointOptions{Metrics: true, Interval: *interval, Trace: *limit > 0, TraceLimit: *limit}
	case traceFamily:
		opts = harness.PointOptions{Trace: true, TraceLimit: *limit}
	}
	res, rep, col, err := harness.RunPointWith(sc.build(workload{*find, *shards, *cross, *hot, *theta}),
		*engName, *threads, cfg, opts)
	if err != nil {
		return err
	}
	if err := render(*format, res, rep, col, *horizon, *seed, *timeline); err != nil {
		return err
	}
	if *serveAt != "" {
		if err := serveReport(*serveAt, rep, col); err != nil {
			return err
		}
	}
	return invariant(res.InvariantViolation)
}

// render prints one point in the chosen format. rep is set for the
// metrics formats and col for the trace formats.
func render(format string, res harness.Result, rep *metrics.Report, col *trace.Collector, horizon int64, seed uint64, timeline int) error {
	var out string
	var err error
	switch format {
	case "text":
		report(res)
	case "json":
		out, err = jsonLine(json.MarshalIndent(harness.RecordOf(res), "", "  "))
	case "metrics":
		out = rep.Text()
	case "metrics-json":
		out, err = jsonLine(rep.JSON())
	case "csv":
		out = rep.CSV()
	case "prom":
		out = rep.Prometheus()
	case "trace":
		out = fmt.Sprintf("scenario %s, engine %s, %d threads, horizon %d cycles\n\n%s\n%s",
			res.Scenario, res.Engine, res.Threads, horizon, col.Summary(),
			trace.FormatSpanStats(trace.ComputeSpanStats(trace.BuildSpans(col.Events()))))
		if timeline > 0 {
			out += fmt.Sprintf("\nfirst %d events:\n%s", timeline, col.FormatTimeline(timeline))
		}
	case "trace-json":
		out, err = jsonLine(json.MarshalIndent(traceReport{
			Scenario:   res.Scenario,
			Engine:     res.Engine,
			Threads:    res.Threads,
			Horizon:    horizon,
			Seed:       seed,
			Ops:        res.Ops,
			Cycles:     res.Cycles,
			Throughput: res.Throughput,
			Summary:    col.SummaryData(),
			Spans:      trace.ComputeSpanStats(trace.BuildSpans(col.Events())),
		}, "", "  "))
	case "chrome":
		err = trace.WriteChrome(os.Stdout, col.Events(), res.Engine)
	}
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// jsonLine is an encoded JSON document as one output line.
func jsonLine(b []byte, err error) (string, error) {
	return string(b) + "\n", err
}

// traceReport is the -format trace-json document: run identity and
// results alongside the aggregate trace summary and span statistics.
type traceReport struct {
	Scenario   string            `json:"scenario"`
	Engine     string            `json:"engine"`
	Threads    int               `json:"threads"`
	Horizon    int64             `json:"horizon"`
	Seed       uint64            `json:"seed"`
	Ops        uint64            `json:"ops"`
	Cycles     int64             `json:"cycles"`
	Throughput float64           `json:"throughput_ops_per_mcycle"`
	Summary    trace.SummaryData `json:"summary"`
	Spans      trace.SpanStats   `json:"spans"`
}

// serveReport exposes the finished report (and, when the run was traced,
// its hot lines and health) on the introspection endpoints and blocks
// until the process is interrupted — a scrape target for Prometheus
// (/debug/metrics?format=prom) or a browse target for curl/hcftop.
func serveReport(addr string, rep *metrics.Report, col *trace.Collector) error {
	srv := serve.New()
	srv.SetMeta(rep.Scenario, rep.Engine, rep.Threads)
	srv.SetReport(func() *metrics.Report { return rep })
	srv.SetShards(func() []metrics.GroupCounters { return rep.Totals.ByGroup })
	if rep.SLO != nil {
		srv.SetSLO(func() *metrics.SLOSnapshot { return rep.SLO })
	}
	if col != nil {
		srv.SetTraceHealth(func() *metrics.TraceHealth { return rep.Trace })
		srv.PublishHotLines(col.HotLines(32))
	}
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "hcfstat: serving the report at http://%s/debug (ctrl-c to stop)\n", bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// runElastic runs the elastic scenario under HCF-E with the rebalancer
// attached and reports the ring topology and the journal tail.
func runElastic(find, hot, threads int, cfg harness.Config, lastN int, jsonFlg bool) error {
	if cfg.Horizon <= 0 {
		cfg.Horizon = harness.ElasticDefaultHorizon
	}
	sc := harness.ElasticScenario(find, harness.ElasticBuckets,
		harness.ElasticMaxShards, harness.ElasticInitialShards, hot, cfg.Horizon)
	p, err := harness.RunPointElastic(sc, "elastic", true, threads, cfg, harness.ElasticRunConfig{})
	if err != nil {
		return err
	}
	if jsonFlg {
		out, err := jsonLine(json.MarshalIndent(&p, "", "  "))
		if err != nil {
			return err
		}
		fmt.Print(out)
		return invariant(p.InvariantViolation)
	}
	fmt.Printf("scenario    %s\n", p.Scenario)
	fmt.Printf("engine      %s (rebalancer attached)\n", p.Engine)
	fmt.Printf("threads     %d\n", p.Threads)
	fmt.Printf("ops         %d of %d arrivals in %d cycles\n", p.Completed, p.Arrivals, p.Makespan)
	fmt.Printf("throughput  %.1f ops/Mcycle (post-phase %.1f), sojourn p99 %d\n",
		p.Throughput, p.PostThroughput, p.Sojourn.P99)
	fmt.Printf("windows     %d bad of %d; healed=%v\n\n", p.BadWindows, len(p.Windows), p.Healed)

	if t := p.Topology; t != nil {
		fmt.Printf("topology    epoch=%d active=%d/%d slots=%d\n",
			t.Ring.Epoch, t.Ring.Active, t.Provisioned, t.Ring.Slots)
		fmt.Printf("            splits=%d merges=%d moved_keys=%d reroutes=%d cross_ops=%d\n",
			t.Splits, t.Merges, t.MovedKeys, t.Reroutes, t.CrossOps)
		fmt.Printf("            shard_ops=%v slot_counts=%v\n\n", t.ShardOps, t.Ring.Counts)
	}
	ds := p.Decisions
	if lastN > 0 && len(ds) > lastN {
		ds = ds[len(ds)-lastN:]
	}
	fmt.Printf("rebalancer decisions (last %d of %d):\n", len(ds), len(p.Decisions))
	for _, d := range ds {
		fmt.Printf("  w%03d t=%-8d %-5s %-13s", d.Window, d.Now, d.Action, d.Reason)
		if d.Action != "hold" {
			fmt.Printf(" %d→%d moved=%d", d.From, d.To, d.MovedKeys)
		}
		fmt.Printf("  hottest=%.0f%% fair=%.0f%% ops=%d\n",
			100*d.HottestShare, 100*d.FairShare, d.TotalOps)
	}
	return invariant(p.InvariantViolation)
}

// invariant fails a run whose structure failed its invariant check, after
// its report is printed.
func invariant(violation string) error {
	if violation != "" {
		return fmt.Errorf("invariant violation: %s", violation)
	}
	return nil
}

func report(r harness.Result) {
	fmt.Printf("scenario    %s\n", r.Scenario)
	fmt.Printf("engine      %s\n", r.Engine)
	fmt.Printf("threads     %d\n", r.Threads)
	fmt.Printf("ops         %d in %d cycles\n", r.Ops, r.Cycles)
	fmt.Printf("throughput  %.1f ops/Mcycle\n\n", r.Throughput)

	m := &r.Metrics
	fmt.Printf("locks       L acquisitions: %d (%.4f/op), selection/aux: %d\n",
		m.LockAcquisitions, perOp(m.LockAcquisitions, r.Ops), m.AuxAcquisitions)
	fmt.Printf("combining   %d ops in %d sessions (degree %.2f)\n",
		m.CombinedOps, m.CombinerSessions, m.CombiningDegree())

	h := &m.HTM
	fmt.Printf("htm         started %d, committed %d (%.1f%%)\n",
		h.Started, h.Commits, pct(h.Commits, h.Started))
	fmt.Printf("  aborts    total %d", h.TotalAborts())
	for reason := htm.ReasonConflict; reason < htm.NumReasons; reason++ {
		if h.Aborts[reason] > 0 {
			fmt.Printf("  %s=%d", reason, h.Aborts[reason])
		}
	}
	fmt.Println()

	fmt.Printf("memory      loads %d, stores %d, L1 miss %.2f%% (coherence %d, cross-socket %d)\n\n",
		r.Mem.Loads, r.Mem.Stores, 100*r.Mem.MissRate(),
		r.Mem.CoherenceMisses, r.Mem.RemoteMisses)

	if r.PhaseByClass != nil {
		fmt.Println("phase completions by class:")
		for c, phases := range r.PhaseByClass {
			var total uint64
			for _, p := range phases {
				total += p
			}
			if total == 0 {
				continue
			}
			fmt.Printf("  class %d:", c)
			for p := 0; p < core.NumPhases; p++ {
				fmt.Printf("  %s=%.1f%%", core.Phase(p), pct(phases[p], total))
			}
			fmt.Println()
		}
	}
}

func perOp(n, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
