// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload against the native map (hcf/native), the durable
// KV store (internal/kvstore) or the simulator (internal/harness), checks
// the outputs, prints every metric by name with its unit, and ends with
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON metrics are the end_to_end ones BENCHMARK.json
// declares, measured on the named workload. With -trace 1 the run is the
// traced run: every workload is measured once untraced and once with
// spans recorded around each layer call, and the JSON metrics are the
// per_layer ones of every layer. Spans stay in memory and are written
// to -out when the run ends. A failed correctness check, or a declared
// metric the run did not produce, exits with status 1.
//
// run.py builds this package with its caches kept inside the checkout
// and runs it from the checkout's root:
//
//	python3 perfbench/run.py --workload native-map-rw50 --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer each one
// belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps a workload name to its untraced run.
var workloads = map[string]func(*bench){
	"native-map-rw50":  runNative,
	"kv-zipf-openloop": runKV,
	"sim-fig2c":        runSim,
}

var workloadOrder = []string{"native-map-rw50", "kv-zipf-openloop", "sim-fig2c"}

// bench carries one run's settings and collects its metrics and checks.
type bench struct {
	seed    uint64
	seconds float64
	dir     string  // scratch directory for store files, inside the checkout
	tr      *tracer // non-nil in the traced run

	attempted int64
	failed    int64
	problems  []string

	names   []string
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(seed uint64, seconds float64, dir string) *bench {
	return &bench{seed: seed, seconds: seconds, dir: dir, metrics: map[string]metric{}}
}

// put records a metric; the last value under a name wins.
func (b *bench) put(name string, value float64, unit string) {
	if _, ok := b.metrics[name]; !ok {
		b.names = append(b.names, name)
	}
	b.metrics[name] = metric{value, unit}
}

// check records a failed correctness check when ok is false and returns
// ok. The caller counts the operations the failure spoils.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// count adds a workload's operation tally to the run's totals.
func (b *bench) count(attempted, failed int64) {
	b.attempted += attempted
	b.failed += failed
}

// duration is a share of the run's measured seconds.
func (b *bench) duration(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// specMetric is one metric BENCHMARK.json declares.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics of every layer")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	dir := flag.String("dir", ".bench_build/perfbench-work", "scratch directory for store files")
	out := flag.String("out", "", "span file written by a traced run (default <dir>/trace.jsonl)")
	commit := flag.String("commit", "unknown", "source revision, for the host header")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok && *workload != "all" {
		fatal("unknown workload %q (want %s or all)", *workload, strings.Join(workloadOrder, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be positive and -trace 0 or 1")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fatal("%v", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fatal("%s: %v", *specPath, err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal("%v", err)
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fatal("%v", err)
	}

	host := hostHeader(work, *commit)
	fmt.Println("host:", host)
	var b *bench
	var result map[string]metric
	switch {
	case *trace == 1:
		if *out == "" {
			*out = filepath.Join(*dir, "trace.jsonl")
		}
		b = newBench(*seed, *seconds, work)
		runTraced(b, *out, host)
		result = declared(b, sp.PerLayer, "")
	case *workload == "all":
		b = newBench(*seed, *seconds, work)
		result = map[string]metric{}
		for _, name := range workloadOrder {
			sub := newBench(*seed, *seconds, work)
			runWorkload(sub, name)
			for n, m := range declared(sub, sp.EndToEnd, name) {
				result[name+"/"+n] = m
			}
			b.count(sub.attempted, sub.failed)
			b.problems = append(b.problems, sub.problems...)
		}
	default:
		b = newBench(*seed, *seconds, work)
		runWorkload(b, *workload)
		result = declared(b, sp.EndToEnd, *workload)
	}
	os.RemoveAll(work)
	os.Exit(finish(b, result))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs one untraced workload and adds the metrics every
// workload reports.
func runWorkload(b *bench, name string) {
	fmt.Printf("== %s (seed %d, %gs)\n", name, b.seed, b.seconds)
	workloads[name](b)
	b.put("mem_peak_mb", peakRSSMB(), "MB")
	b.put("ops_failed_frac", ratio(float64(b.failed), float64(max(b.attempted, 1))), "frac")
	b.printMetrics()
}

func (b *bench) printMetrics() {
	for _, n := range b.names {
		m := b.metrics[n]
		fmt.Printf("  %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// declared picks the metrics the spec names out of b. A declared metric
// the run did not produce, or produced in another unit, is a failed
// check: the result must carry exactly what BENCHMARK.json promises.
func declared(b *bench, want []specMetric, label string) map[string]metric {
	out := map[string]metric{}
	for _, w := range want {
		m, ok := b.metrics[w.Name]
		switch {
		case !ok:
			b.check(false, "%s: declared metric %s was not measured", label, w.Name)
		case m.Unit != w.Unit:
			b.check(false, "%s: metric %s is in %s, declared in %s", label, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			b.check(false, "%s: metric %s is %v", label, w.Name, m.Value)
		default:
			out[w.Name] = m
		}
	}
	return out
}

// finish prints the failed checks and the result line and returns the
// exit status.
func finish(b *bench, metrics map[string]metric) int {
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if len(b.problems) > 0 && b.failed == 0 {
		b.failed = 1 // a failed check that spoiled no single operation
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, max(b.attempted, 1), b.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostHeader describes what the run ran on, so that a disk or machine
// change can be told apart from a code change.
func hostHeader(dir, commit string) string {
	return fmt.Sprintf("num_cpu=%d GOMAXPROCS=%d go=%s commit=%s kv_fs=%s host.fsync_us_p50=%.1f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, fsName(dir), fsyncProbeUS(dir))
}

// fsyncProbeUS is the median of raw WriteAt+Sync pairs in dir, in µs:
// the floor under every group commit.
func fsyncProbeUS(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return math.NaN()
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return math.NaN()
		}
		if err := f.Sync(); err != nil {
			return math.NaN()
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(us, 0.5)
}

// fsName names the filesystem holding dir from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x65735546: "fuse", 0x6A656A63: "virtiofs", 0x01021997: "9p",
		0x2FC12FC1: "zfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// timed runs f n times and returns the median wall time in seconds. A
// collection after each call keeps one repetition's garbage from
// raising the next one's heap, and so the peak RSS, by chance.
func timed(n int, f func()) float64 {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		ts = append(ts, time.Since(t0).Seconds())
		runtime.GC()
	}
	return quantile(ts, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
