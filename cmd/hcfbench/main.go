// Command hcfbench regenerates the paper's figures on the deterministic
// simulator, and the wall-clock figures of the native backend, the KV
// engine and the simulator's own host speed.
//
// Usage:
//
//	hcfbench -list                 # show all reproducible experiments
//	hcfbench -fig 2c               # reproduce one figure
//	hcfbench -fig all              # reproduce everything
//	hcfbench -fig 5a -csv          # emit CSV for external plotting
//	hcfbench -fig 5a -json         # emit the figure's benchmark record
//	hcfbench -fig 2a -threads 1,8,36 -horizon 500000 -seed 7
//
// Every figure emits the same record format with -json: one header line
// (figure, host, config) and one JSON line per point. -gate compares the
// fresh record against a baseline record and exits non-zero on a
// regression; the figure decides how. Simulator figures must reproduce
// the baseline's config and every baseline point byte for byte.
// Wall-clock figures gate one metric per point, normalized by the median
// fresh/baseline ratio so a uniform hardware shift passes. Any point with
// an invariant violation or a failed crash-recovery replay fails the run,
// gated or not, and so does an autotune record whose tuned run falls
// below 0.9x the paper configuration.
//
// The checked-in records and the command that gates each one:
//
//	hcfbench -fig sharded -json -gate bench/SHARDED_sweep.jsonl
//	hcfbench -fig openloop -json -gate bench/OPENLOOP_sweep.jsonl
//	hcfbench -fig elastic -json -gate bench/ELASTIC_sweep.jsonl
//	hcfbench -fig native -native-dur 80 -json -gate bench/BENCH_native.jsonl
//	hcfbench -fig kv -kv-dur 200 -json -gate bench/KV_sweep.jsonl
//	hcfbench -fig hostspeed -threads 1,4,12,36 -horizon 200000 -parallel 1 -json -gate bench/HOSTSPEED.jsonl
//	hcfbench -fig autotune -threads 36 -horizon 900000 -seed 1 -json -journal-out j.json -gate bench/AUTOTUNE_sweep.jsonl
//
// -fig autotune's text ends with the tuner's decision journal, and
// -journal-out also writes it as JSON (bench/AUTOTUNE_journal.json).
//
// Redirect -json to a file to record a new baseline. The open-loop figure
// can also serve live introspection endpoints while it runs:
//
//	hcfbench -fig openloop -serve 127.0.0.1:7070
//
// A flag the chosen figure does not read is an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hcf/internal/harness"
	"hcf/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcfbench:", err)
		os.Exit(1)
	}
}

// startCPUProfile begins CPU profiling to path ("" = disabled) and returns a
// stop function.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile dumps an allocation profile to path ("" = disabled).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final heap state
	return pprof.WriteHeapProfile(f)
}

// figureFlags lists the flags each figure with its own pipeline reads,
// beyond -fig, -json, -gate and the profiling flags. Every other figure
// is a RunFigure sweep and reads sweepFlags.
var figureFlags = map[string][]string{
	"native":    {"threads", "native-dur"},
	"kv":        {"threads", "kv-dur"},
	"openloop":  {"threads", "engines", "rates", "horizon", "seed", "parallel", "serve"},
	"elastic":   {"threads", "horizon", "seed", "parallel", "elastic-rate"},
	"hostspeed": {"threads", "engines", "horizon", "seed", "parallel"},
	"autotune":  {"threads", "horizon", "seed", "journal-out"},
}

var sweepFlags = []string{"threads", "engines", "horizon", "seed", "parallel", "csv"}

// checkFlags rejects every flag set on the command line that the figure
// would silently ignore.
func checkFlags(fs *flag.FlagSet, fig string) error {
	reads := map[string]bool{"fig": true, "json": true, "gate": true, "cpuprofile": true, "memprofile": true}
	names, ok := figureFlags[fig]
	if !ok {
		names = sweepFlags
	}
	for _, n := range names {
		reads[n] = true
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("-fig %s does not use %s", fig, strings.Join(bad, ", "))
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcfbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available figures and exit")
		figID    = fs.String("fig", "", "figure id to reproduce: a -list entry, 'all', 'native', 'kv' or 'hostspeed'")
		horizon  = fs.Int64("horizon", 200_000, "virtual cycles per measurement")
		seed     = fs.Uint64("seed", 1, "workload seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables")
		jsonFlg  = fs.Bool("json", false, "emit the figure's benchmark record (JSON Lines: header, then one line per point) instead of tables")
		gatePath = fs.String("gate", "", "compare the fresh record against this baseline record; exit non-zero on a regression")
		threads  = fs.String("threads", "", "comma-separated thread counts (override)")
		engs     = fs.String("engines", "", "comma-separated engine names (override)")
		parallel = fs.Int("parallel", 0, "max concurrently measured sweep points (0 = all host cores, 1 = serial)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof allocation profile to this file")
		rates    = fs.String("rates", "", "comma-separated offered loads in ops/Mcycle (-fig openloop only; default 2000,8000,20000,45000,90000)")
		serveAt  = fs.String("serve", "", "host:port for live introspection endpoints during the -fig openloop run (forces serial point order)")
		natDur   = fs.Int("native-dur", 150, "measured window per point in milliseconds (-fig native only)")
		kvDur    = fs.Int64("kv-dur", 400, "arrival window per point in milliseconds (-fig kv only)")
		elRate   = fs.Float64("elastic-rate", 0, "-fig elastic only: offered load in ops/Mcycle (0 = default)")
		journal  = fs.String("journal-out", "", "-fig autotune only: also write the tuner's decision journal (JSON) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, f := range harness.Figures() {
			fmt.Printf("%-14s %-18s %s\n", f.ID, f.Ref, f.Title)
		}
		return nil
	}
	if *figID == "" {
		fs.Usage()
		return fmt.Errorf("missing -fig (or -list)")
	}
	if err := checkFlags(fs, *figID); err != nil {
		return err
	}
	var ts []int
	if *threads != "" {
		var err error
		if ts, err = parseInts(*threads); err != nil {
			return err
		}
	}
	var engines []string
	if *engs != "" {
		engines = strings.Split(*engs, ",")
		if err := harness.ValidateEngineNames(engines); err != nil {
			return err
		}
	}
	stopProf, err := startCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer stopProf()
	defer func() {
		if err := writeMemProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "hcfbench: memprofile:", err)
		}
	}()

	cfg := harness.Config{Horizon: *horizon, Seed: *seed, Parallel: *parallel}
	var rec []byte
	var text string
	switch *figID {
	case "native":
		rec, text, err = runNative(ts, *natDur)
	case "kv":
		rec, text, err = runKV(ts, *kvDur)
	case "openloop":
		rec, text, err = runOpenLoop(ts, engines, *rates, cfg, *serveAt)
	case "elastic":
		rec, text, err = runElastic(ts, ownHorizon(fs, cfg), *elRate)
	case "autotune":
		rec, text, err = runAutotune(ts, ownHorizon(fs, cfg), *journal)
	case "hostspeed":
		rec, text, err = runHostSpeed(ts, engines, cfg)
	default:
		rec, text, err = runFigures(*figID, ts, engines, cfg, *csv)
	}
	if err != nil {
		return err
	}
	if *jsonFlg {
		os.Stdout.Write(rec)
	} else {
		fmt.Print(text)
	}
	return check(rec, *gatePath)
}

// check fails the run on any correctness failure in the fresh record and,
// with -gate, on a regression against the baseline record.
func check(rec []byte, gatePath string) error {
	fresh, err := harness.ParseRecord(rec)
	if err != nil {
		return err
	}
	if err := harness.CheckRecord(fresh); err != nil {
		return err
	}
	if gatePath == "" {
		return nil
	}
	data, err := os.ReadFile(gatePath)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	base, err := harness.ParseRecord(data)
	if err != nil {
		return fmt.Errorf("gate %s: %w", gatePath, err)
	}
	summary, err := harness.GateRecord(fresh, base)
	if err != nil {
		return fmt.Errorf("gate %s: %w", gatePath, err)
	}
	fmt.Fprintf(os.Stderr, "hcfbench: gate %s passed: %s\n", gatePath, summary)
	return nil
}

// ownHorizon clears cfg.Horizon unless -horizon was set, for the figures
// with their own (longer) default horizon.
func ownHorizon(fs *flag.FlagSet, cfg harness.Config) harness.Config {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "horizon" })
	if !set {
		cfg.Horizon = 0
	}
	return cfg
}

// runFigures runs one registry figure, or all of them, as RunFigure
// sweeps: one record of every row, rendered per figure as a table or CSV.
func runFigures(id string, threads []int, engines []string, cfg harness.Config, csv bool) ([]byte, string, error) {
	figs := harness.Figures()
	if id != "all" {
		f, err := harness.FigureByID(id)
		if err != nil {
			return nil, "", err
		}
		figs = []harness.Figure{f}
	}
	sc := harness.SweepConfig{Threads: threads, Engines: engines, Horizon: cfg.Horizon, Seed: cfg.Seed}
	var all []harness.Result
	var text strings.Builder
	for _, f := range figs {
		if threads != nil {
			f.Threads = threads
		}
		if engines != nil {
			f.Engines = engines
		}
		if id != "all" {
			sc.Threads, sc.Engines = f.Threads, f.Engines
		}
		results, err := harness.RunFigure(f, cfg)
		if err != nil {
			return nil, "", err
		}
		all = append(all, results...)
		if csv {
			text.WriteString(harness.FormatCSV(results))
		} else {
			text.WriteString(harness.FormatFigure(f, results) + "\n")
		}
	}
	rec, err := harness.EncodeResults(id, sc, all)
	return rec, text.String(), err
}

// runHostSpeed times the figure-2c reference sweep.
func runHostSpeed(threads []int, engines []string, cfg harness.Config) ([]byte, string, error) {
	f, err := harness.FigureByID("2c")
	if err != nil {
		return nil, "", err
	}
	if threads != nil {
		f.Threads = threads
	}
	if engines != nil {
		f.Engines = engines
	}
	return output(harness.RunHostSpeed(f, cfg))
}

// runNative is the -fig native pipeline: a wall-clock sweep of the
// native (direct-atomics) HCF backend against sync.Mutex, sync.RWMutex
// and sync.Map across goroutine counts and read/write mixes.
func runNative(threads []int, durMS int) ([]byte, string, error) {
	rep, err := harness.RunNativeSweep(harness.NativeOptions{
		Goroutines: threads,
		Duration:   time.Duration(durMS) * time.Millisecond,
	})
	if err != nil {
		return nil, "", err
	}
	rec, err := rep.Record()
	return rec, harness.FormatNativeReport(rep), err
}

// runKV is the -fig kv pipeline: an open-loop sweep of the HCF-backed
// KV engine (hcf.NewKV) across simulated-user populations and get/put/
// delete mixes, with fsync-backed group commit, sojourn tails, SLO
// verdicts and an inline crash-recovery replay check per point.
func runKV(threads []int, durMS int64) ([]byte, string, error) {
	opts := harness.KVSweepOptions{DurationMS: durMS}
	if threads != nil {
		var err error
		if opts.Workers, err = oneThreadCount("kv", threads); err != nil {
			return nil, "", err
		}
	}
	return output(harness.RunKVSweep(opts))
}

// runOpenLoop is the -fig openloop pipeline: an offered-load sweep with
// coordinated-omission-safe sojourn latency and optional live
// introspection endpoints during the run.
func runOpenLoop(threads []int, engines []string, ratesCSV string, cfg harness.Config, serveAt string) ([]byte, string, error) {
	th, err := oneThreadCount("openloop", threads)
	if err != nil {
		return nil, "", err
	}
	if engines == nil {
		engines = harness.OpenLoopDefaultEngines
	}
	rates := harness.OpenLoopDefaultRates
	if ratesCSV != "" {
		rates = rates[:0:0]
		for _, p := range strings.Split(ratesCSV, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || r <= 0 {
				return nil, "", fmt.Errorf("bad rate %q", p)
			}
			rates = append(rates, r)
		}
	}
	ol := harness.OpenLoopConfig{Interval: max(cfg.Horizon/20, 1)}
	if serveAt != "" {
		// Live introspection: the sweep runs its points serially so the
		// one observer always describes the point in flight. Results are
		// bit-identical to the unserved sweep.
		srv := serve.New()
		addr, err := srv.Start(serveAt)
		if err != nil {
			return nil, "", err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "hcfbench: live introspection at http://%s/debug\n", addr)
		ol.Observer = srv
	}
	return output(harness.RunOpenLoopSweep(harness.OpenLoopScenario(), engines, rates, th, cfg, ol))
}

// runElastic is the -fig elastic pipeline: the three-mode hot-shard
// healing comparison (balanced / static skew / rebalanced).
func runElastic(threads []int, cfg harness.Config, rate float64) ([]byte, string, error) {
	th, err := oneThreadCount("elastic", threads)
	if err != nil {
		return nil, "", err
	}
	return output(harness.RunElasticFigure(th, cfg, harness.ElasticRunConfig{Rate: rate}))
}

// autotuneHorizon is -fig autotune's default horizon, the one
// bench/AUTOTUNE_sweep.jsonl was recorded at (drift points at 1/3 and 2/3).
const autotuneHorizon = 900_000

// runAutotune is the -fig autotune pipeline: every static policy, the
// tuned run and the per-segment oracle on the drifting priority-queue
// workload, with the tuner's decision journal.
func runAutotune(threads []int, cfg harness.Config, journalOut string) ([]byte, string, error) {
	th, err := oneThreadCount("autotune", threads)
	if err != nil {
		return nil, "", err
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = autotuneHorizon
	}
	rep, err := harness.RunAutotune(th, cfg)
	if err != nil {
		return nil, "", err
	}
	if journalOut != "" {
		out, err := rep.Journal.JSON()
		if err != nil {
			return nil, "", err
		}
		if err := os.WriteFile(journalOut, append(out, '\n'), 0o644); err != nil {
			return nil, "", err
		}
	}
	text := fmt.Sprintf("%s\ndecision journal (%d entries):\n%s", rep.Text(), rep.Journal.Len(), rep.Journal.Text())
	rec, err := rep.Record()
	return rec, text, err
}

// output is a figure report's record and text.
func output(rep interface {
	Record() ([]byte, error)
	Text() string
}, err error) ([]byte, string, error) {
	if err != nil {
		return nil, "", err
	}
	rec, err := rep.Record()
	return rec, rep.Text(), err
}

// oneThreadCount is the single -threads value of a figure that measures
// one thread count (default 36).
func oneThreadCount(fig string, threads []int) (int, error) {
	switch len(threads) {
	case 0:
		return 36, nil
	case 1:
		return threads[0], nil
	}
	return 0, fmt.Errorf("-fig %s takes exactly one thread count, got %v", fig, threads)
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad thread count %q: %w", p, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("thread count must be positive, got %d", n)
		}
		out = append(out, n)
	}
	return out, nil
}
