package harness

// One record format and one comparator for every hcfbench figure.
//
// A record is JSON Lines: one header line
//
//	{"figure":"kv","host":{...},"config":{...}}
//
// followed by one line per measured point. The header's config is the
// report's typed header struct and each point line is the report's typed
// point struct, so renderers keep their types; everything that only moves
// records around (the hcfbench -json output, the checked-in bench/*.jsonl
// files, the CI gates) sees the generic Record.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Host describes the machine and build that wrote a record. The exact
// gate ignores it; it is there so a wall-clock number can be read
// against the hardware it was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the VCS revision stamped into the build info, suffixed
	// "+dirty" when the tree had local changes; empty when the binary
	// carries no VCS stamp (go run, go test).
	Commit string `json:"commit"`
}

func currentHost() Host {
	h := Host{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// Record is a parsed benchmark record: the header fields, with config and
// every point kept as the exact bytes of its line.
type Record struct {
	Figure string            `json:"figure"`
	Host   Host              `json:"host"`
	Config json.RawMessage   `json:"config"`
	Points []json.RawMessage `json:"-"`
}

// EncodeRecord writes a record: the header (figure, this process's host,
// config) and one compact JSON line per point. It is the only writer.
func EncodeRecord[P any](figure string, config any, points []P) ([]byte, error) {
	cfg, err := json.Marshal(config)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	h, err := json.Marshal(Record{Figure: figure, Host: currentHost(), Config: cfg})
	if err != nil {
		return nil, err
	}
	b.Write(h)
	b.WriteByte('\n')
	for i := range points {
		line, err := json.Marshal(&points[i])
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// ParseRecord reads a record written by EncodeRecord. It is the only
// reader.
func ParseRecord(data []byte) (*Record, error) {
	var rec Record
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			return nil, fmt.Errorf("harness: record line %d is not JSON", i+1)
		}
		if rec.Figure == "" {
			if err := json.Unmarshal(line, &rec); err != nil || rec.Figure == "" {
				return nil, fmt.Errorf("harness: record header has no figure (not a benchmark record?)")
			}
			continue
		}
		rec.Points = append(rec.Points, json.RawMessage(line))
	}
	if rec.Figure == "" {
		return nil, fmt.Errorf("harness: empty record")
	}
	return &rec, nil
}

// CheckRecord fails on any point that reports a correctness failure: a
// non-empty invariant_violation (every simulator figure) or recovery_ok
// false (the kv figure's crash-recovery replay), and on an autotune
// record whose tuned run falls below AutotuneFloor times the paper
// configuration. It runs on every hcfbench record, gated or not.
func CheckRecord(r *Record) error {
	var fails []string
	for i, line := range r.Points {
		var p struct {
			InvariantViolation string `json:"invariant_violation"`
			RecoveryOK         *bool  `json:"recovery_ok"`
		}
		if err := json.Unmarshal(line, &p); err != nil {
			return fmt.Errorf("harness: %s point %d: %w", r.Figure, i, err)
		}
		if p.InvariantViolation != "" {
			fails = append(fails, fmt.Sprintf("point %d: invariant violation: %s", i, p.InvariantViolation))
		}
		if p.RecoveryOK != nil && !*p.RecoveryOK {
			fails = append(fails, fmt.Sprintf("point %d: crash-recovery replay mismatch", i))
		}
	}
	if r.Figure == "autotune" {
		fail, err := checkAutotuneFloor(r)
		if err != nil {
			return err
		}
		if fail != "" {
			fails = append(fails, fail)
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("harness: %s: %d correctness failures:\n  %s", r.Figure, len(fails), strings.Join(fails, "\n  "))
	}
	return nil
}

// gateTolerance is how much worse than the median ratio a wall-clock
// point may get before the gate fails.
const gateTolerance = 2

// metricGate is how a wall-clock figure is gated: metric decodes one point
// line into its identity and its gated value; ok=false keeps the point out
// of the ratio (too few samples to mean anything).
// sameConfig makes the gate first require equal header configs, for a
// figure whose metric moves with its config. counts, when set, decodes a
// point's deterministic host-work counts: at an equal config any count
// above the matching baseline point's fails, however the metric moved.
type metricGate struct {
	higherBetter bool
	sameConfig   bool
	metric       func(line []byte) (key string, v float64, ok bool, err error)
	counts       func(line []byte) ([]count, error)
}

// count is one named deterministic count of a point.
type count struct {
	name string
	v    uint64
}

func pointMetric[P any](higherBetter, sameConfig bool, f func(p *P) (string, float64, bool)) metricGate {
	return metricGate{higherBetter, sameConfig, func(line []byte) (string, float64, bool, error) {
		var p P
		if err := json.Unmarshal(line, &p); err != nil {
			return "", 0, false, err
		}
		k, v, ok := f(&p)
		return k, v, ok, nil
	}, nil}
}

// withCounts adds a count ceiling to a sameConfig gate.
func withCounts[P any](g metricGate, f func(p *P) []count) metricGate {
	g.counts = func(line []byte) ([]count, error) {
		var p P
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, err
		}
		return f(&p), nil
	}
	return g
}

// kvGateMinSamples is the sojourn-count floor for a kv point to enter the
// p99 ratio gate. Below it the p99 is an order statistic of the top one
// or two samples: a single fsync stall flips the verdict, and short CI
// windows at low offered loads sit exactly there.
const kvGateMinSamples = 500

// metricGates lists the wall-clock figures and the one metric each is
// gated on. Every other figure runs on the deterministic simulator and is
// gated exactly.
var metricGates = map[string]metricGate{
	"native": pointMetric(true, false, func(p *NativePoint) (string, float64, bool) {
		return fmt.Sprintf("%s/%s g=%d read=%d%%", p.Structure, p.Engine, p.Goroutines, p.ReadPct), p.OpsPerSec, true
	}),
	"kv": pointMetric(false, false, func(p *KVPoint) (string, float64, bool) {
		return fmt.Sprintf("users=%d get=%d%%", p.Users, p.GetPct), float64(p.Sojourn.P99), p.Sojourn.Count >= kvGateMinSamples
	}),
	// Host speed depends on the sweep timed (horizon, grid, parallelism),
	// so it is only comparable at the baseline's config, where the host
	// work counts must also not grow.
	"hostspeed": withCounts(pointMetric(true, true, func(p *HostSpeedPoint) (string, float64, bool) {
		return "sim_mcycles_per_host_sec", p.SimMcyclesPerHostSec, true
	}), func(p *HostSpeedPoint) []count {
		return []count{{"handoffs", p.Handoffs}, {"heap_swaps", p.HeapSwaps}, {"wait_steps", p.WaitSteps}}
	}),
}

// GateRecord compares a fresh record against a baseline of the same
// figure and returns a one-line summary of what passed. The figure picks
// the mode:
//
//   - Simulator figures are exact: the header configs must be equal (the
//     host block aside) and every baseline point line must reappear byte
//     for byte in the fresh record, in the baseline's order.
//   - Wall-clock figures (metricGates) gate one metric. Each matched
//     point's fresh/base ratio, oriented so that larger is better, is
//     divided by the median ratio when more than one point matched (for
//     an even count, the middle value on the better side). The median
//     absorbs a uniform hardware shift between the baseline's machine and
//     this one, so only regressions concentrated in some points fail. A
//     point fails when it is more than gateTolerance times worse.
//     Hostspeed also requires the header configs to be equal, and fails
//     when any host-work count exceeds the baseline's or is missing (a
//     baseline count of zero predates the counts and is not checked).
//
// Fresh points without a baseline match are ignored.
func GateRecord(fresh, base *Record) (string, error) {
	if fresh.Figure != base.Figure {
		return "", fmt.Errorf("harness: cannot gate figure %q against a %q baseline", fresh.Figure, base.Figure)
	}
	if len(base.Points) == 0 {
		return "", fmt.Errorf("harness: %s baseline has no points", base.Figure)
	}
	g, ok := metricGates[fresh.Figure]
	if !ok {
		return gateExact(fresh, base)
	}
	return gateMetric(g, fresh, base)
}

func gateExact(fresh, base *Record) (string, error) {
	if err := checkSameConfig(fresh, base); err != nil {
		return "", err
	}
	// The baseline points must appear in the fresh record in their order,
	// as a subsequence: extra fresh points may sit anywhere, but a
	// reordered sweep fails.
	var missing []string
	j := 0
	for i, p := range base.Points {
		k := j
		for k < len(fresh.Points) && !bytes.Equal(fresh.Points[k], p) {
			k++
		}
		if k == len(fresh.Points) {
			missing = append(missing, fmt.Sprintf("baseline point %d: %.200s", i, p))
			continue
		}
		j = k + 1
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("harness: %s: %d/%d baseline points not reproduced in order:\n  %s",
			fresh.Figure, len(missing), len(base.Points), strings.Join(missing, "\n  "))
	}
	return fmt.Sprintf("%d points identical to the baseline", len(base.Points)), nil
}

// checkSameConfig fails when the header configs differ; the host block is not
// part of the config.
func checkSameConfig(fresh, base *Record) error {
	if !bytes.Equal(fresh.Config, base.Config) {
		return fmt.Errorf("harness: %s config differs from the baseline:\n  fresh %s\n  base  %s", fresh.Figure, fresh.Config, base.Config)
	}
	return nil
}

func gateMetric(g metricGate, fresh, base *Record) (string, error) {
	if g.sameConfig {
		if err := checkSameConfig(fresh, base); err != nil {
			return "", err
		}
	}
	type value struct {
		v    float64
		ok   bool
		line []byte
	}
	baseVal := map[string]value{}
	for _, line := range base.Points {
		k, v, ok, err := g.metric(line)
		if err != nil {
			return "", fmt.Errorf("harness: %s baseline point: %w", base.Figure, err)
		}
		baseVal[k] = value{v, ok, line}
	}
	type matched struct {
		key   string
		ratio float64 // oriented: > 1 is better than the baseline
	}
	var ms []matched
	var over []string // host-work counts above the baseline
	common := 0
	for _, line := range fresh.Points {
		k, v, ok, err := g.metric(line)
		if err != nil {
			return "", fmt.Errorf("harness: %s point: %w", fresh.Figure, err)
		}
		b, found := baseVal[k]
		if !found {
			continue
		}
		common++
		if g.counts != nil {
			counts, err := countsAbove(g, line, b.line)
			if err != nil {
				return "", fmt.Errorf("harness: %s point: %w", fresh.Figure, err)
			}
			for _, c := range counts {
				over = append(over, k+": "+c)
			}
		}
		if !ok || !b.ok || v <= 0 || b.v <= 0 {
			continue
		}
		r := v / b.v
		if !g.higherBetter {
			r = b.v / v
		}
		ms = append(ms, matched{k, r})
	}
	if common == 0 {
		return "", fmt.Errorf("harness: %s: no points in common with the baseline", fresh.Figure)
	}
	// norm is what each ratio is judged against: the median when more
	// than one point matched, else the baseline itself.
	norm, against := 1.0, "the baseline"
	if len(ms) > 1 {
		ratios := make([]float64, len(ms))
		for i, m := range ms {
			ratios[i] = m.ratio
		}
		sort.Float64s(ratios)
		norm = ratios[len(ratios)/2]
		against = fmt.Sprintf("the median ratio %.2fx", norm)
	}
	var fails []string
	for _, m := range ms {
		if m.ratio/norm < 1.0/gateTolerance {
			fails = append(fails, fmt.Sprintf("%s: %.2fx the baseline", m.key, m.ratio))
		}
	}
	var errs []string
	if len(fails) > 0 {
		errs = append(errs, fmt.Sprintf("%d/%d points more than %dx worse than %s:\n  %s",
			len(fails), len(ms), gateTolerance, against, strings.Join(fails, "\n  ")))
	}
	if len(over) > 0 {
		errs = append(errs, fmt.Sprintf("%d host-work counts above the baseline:\n  %s", len(over), strings.Join(over, "\n  ")))
	}
	if len(errs) > 0 {
		return "", fmt.Errorf("harness: %s: %s", fresh.Figure, strings.Join(errs, "\n"))
	}
	var sum string
	if len(ms) == 1 {
		sum = fmt.Sprintf("%s at %.2fx the baseline", ms[0].key, ms[0].ratio)
	} else {
		sum = fmt.Sprintf("%d points within %dx of %s (%d matched points not gated)",
			len(ms), gateTolerance, against, common-len(ms))
	}
	if g.counts != nil {
		sum += ", no host-work count above the baseline"
	}
	return sum, nil
}

// countsAbove lists the counts of a fresh point line that exceed the
// baseline line's, or that are missing while the baseline has them.
func countsAbove(g metricGate, fresh, base []byte) ([]string, error) {
	fc, err := g.counts(fresh)
	if err != nil {
		return nil, err
	}
	bc, err := g.counts(base)
	if err != nil {
		return nil, err
	}
	var over []string
	for i, c := range fc {
		switch b := bc[i].v; {
		case b == 0:
		case c.v == 0:
			over = append(over, fmt.Sprintf("%s not counted, the baseline's is %d", c.name, b))
		case c.v > b:
			over = append(over, fmt.Sprintf("%s %d above the baseline's %d", c.name, c.v, b))
		}
	}
	return over, nil
}
