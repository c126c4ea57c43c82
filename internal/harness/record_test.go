package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodeRecord reads data with the one record reader, checks its figure,
// and decodes its config into cfg (when non-nil) and its points into Ps.
func decodeRecord[P any](t *testing.T, data []byte, figure string, cfg any) []P {
	t.Helper()
	rec, err := ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Figure != figure {
		t.Fatalf("record figure %q, want %q", rec.Figure, figure)
	}
	if cfg != nil {
		if err := json.Unmarshal(rec.Config, cfg); err != nil {
			t.Fatal(err)
		}
	}
	points := make([]P, len(rec.Points))
	for i, line := range rec.Points {
		if err := json.Unmarshal(line, &points[i]); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	return points
}

// readBack runs a record encoder and reads its output back with the one
// record reader.
func readBack(t *testing.T, encode func() ([]byte, error)) *Record {
	t.Helper()
	data, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func mustRecord[P any](t *testing.T, figure string, cfg any, points []P) *Record {
	t.Helper()
	return readBack(t, func() ([]byte, error) { return EncodeRecord(figure, cfg, points) })
}

// resultLines encodes sweep rows as a record and returns its point lines,
// each ending in a newline.
func resultLines(t *testing.T, results []Result) string {
	t.Helper()
	rec := readBack(t, func() ([]byte, error) { return EncodeResults("2c", SweepConfig{}, results) })
	var b strings.Builder
	for _, line := range rec.Points {
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// nativePoints is a 6-point native sweep whose ops/s are scale times the
// per-point baseline; edit, when non-nil, changes it further.
func nativePoints(scale float64, edit func([]NativePoint)) []NativePoint {
	var pts []NativePoint
	for _, g := range []int{1, 2, 4} {
		for _, e := range []string{NativeEngineHCF, NativeEngineMutex} {
			pts = append(pts, NativePoint{
				Structure: NativeStructHash, Engine: e, Goroutines: g, ReadPct: 50,
				Ops: 1000, OpsPerSec: scale * float64(1000*g),
			})
		}
	}
	if edit != nil {
		edit(pts)
	}
	return pts
}

// kvPoints is a kv sweep with one point per p99 (nanoseconds), each with
// count completed operations.
func kvPoints(count uint64, p99s ...uint64) []KVPoint {
	var pts []KVPoint
	for i, p99 := range p99s {
		pts = append(pts, KVPoint{
			Users: uint64(1000 * (i + 1)), GetPct: 50, RecoveryOK: true,
			Sojourn: SojournStat{Count: count, P99: p99},
		})
	}
	return pts
}

func hostSpeed(mcps float64) []HostSpeedPoint { return hostWork(mcps, 0, 0, 0) }

// hostWork is a hostspeed point with host-work counts.
func hostWork(mcps float64, handoffs, swaps, steps uint64) []HostSpeedPoint {
	return []HostSpeedPoint{{WallSec: 1, SimMcyclesPerHostSec: mcps, Handoffs: handoffs, HeapSwaps: swaps, WaitSteps: steps}}
}

func sweepRows(horizon int64, rows ...string) (SweepConfig, []ResultRecord) {
	var rs []ResultRecord
	for _, e := range rows {
		rs = append(rs, ResultRecord{Scenario: "stack", Engine: e, Threads: 2, Ops: 10, Cycles: horizon})
	}
	return SweepConfig{Threads: []int{2}, Horizon: horizon, Seed: 1}, rs
}

// TestGateRecord is the comparator's table: both modes. The uniform
// shift, collapsed point, disjoint points, empty baseline and figure
// mismatch rules are pinned by TestCompareNativeBaseline and
// TestParseNativeReportRejectsWrongKind, and a changed exact point and
// extra exact points by TestOpenLoopBaselineComparison.
func TestGateRecord(t *testing.T) {
	nativeBase := mustRecord(t, "native", struct{}{}, nativePoints(1, nil))
	kvBase := mustRecord(t, "kv", struct{}{}, kvPoints(1000, 100, 100, 100, 100))
	cfg, rows := sweepRows(5000, "Lock", "HCF")
	exactBase := mustRecord(t, "stack", cfg, rows)
	cases := []struct {
		name        string
		fresh, base *Record
		wantErr     string // "" = passes
	}{
		{"concentrated kv p99 regression fails",
			mustRecord(t, "kv", struct{}{}, kvPoints(1000, 100, 100, 100, 10000)), kvBase, "more than 2x worse"},
		{"sample floor excludes points",
			mustRecord(t, "kv", struct{}{}, func() []KVPoint {
				p := kvPoints(1000, 100, 100, 100, 10000)
				p[3].Sojourn.Count = kvGateMinSamples - 1
				return p
			}()),
			kvBase, ""},
		// Goodness ratios {1, 1, 2.5, 2.5}: the better-side median is 2.5,
		// so the points at 1 are 0.4x of it and fail. The worse-side
		// median (1) would pass them.
		{"even count takes the better-side median (higher is better)",
			mustRecord(t, "native", struct{}{}, nativePoints(1, func(p []NativePoint) {
				p[0].OpsPerSec, p[1].OpsPerSec = 2.5*p[0].OpsPerSec, 2.5*p[1].OpsPerSec
				p[4].Structure, p[5].Structure = "unmatched", "unmatched"
			})),
			nativeBase, "more than 2x worse"},
		{"even count takes the better-side median (lower is better)",
			mustRecord(t, "kv", struct{}{}, kvPoints(1000, 100, 100, 40, 40)), kvBase, "more than 2x worse"},
		{"extra fresh points are ignored",
			mustRecord(t, "native", struct{}{}, append(nativePoints(1, nil),
				NativePoint{Structure: "new", Engine: "x", Goroutines: 64, OpsPerSec: 1})),
			nativeBase, ""},
		{"exact: identical points pass", exactBase, exactBase, ""},
		{"exact: missing baseline point fails",
			func() *Record { _, r := sweepRows(5000, "Lock"); return mustRecord(t, "stack", cfg, r) }(),
			exactBase, "not reproduced"},
		{"exact: reordered baseline points fail",
			func() *Record { _, r := sweepRows(5000, "HCF", "Lock"); return mustRecord(t, "stack", cfg, r) }(),
			exactBase, "not reproduced in order"},
		{"exact: header config mismatch fails",
			func() *Record { c, _ := sweepRows(6000); return mustRecord(t, "stack", c, rows) }(),
			exactBase, "config differs"},
		{"exact: host block is ignored",
			func() *Record { r := *exactBase; r.Host = Host{GoVersion: "other", NumCPU: 64}; return &r }(),
			exactBase, ""},
		{"single-point hostspeed within 2x passes",
			mustRecord(t, "hostspeed", struct{}{}, hostSpeed(0.6)), mustRecord(t, "hostspeed", struct{}{}, hostSpeed(1)), ""},
		{"single-point hostspeed ratio is not normalized",
			mustRecord(t, "hostspeed", struct{}{}, hostSpeed(0.4)), mustRecord(t, "hostspeed", struct{}{}, hostSpeed(1)), "more than 2x worse"},
		{"hostspeed with equal or fewer host-work counts passes",
			mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 150, 200)), mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 200, 200)), ""},
		{"one more handoff than the baseline fails, however fast",
			mustRecord(t, "hostspeed", struct{}{}, hostWork(10, 101, 200, 200)), mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 200, 200)),
			"handoffs 101 above the baseline's 100"},
		{"more heap swaps or wait steps than the baseline fail",
			mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 201, 201)), mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 200, 200)),
			"2 host-work counts above the baseline"},
		{"a record without host-work counts fails a baseline that has them",
			mustRecord(t, "hostspeed", struct{}{}, hostSpeed(1)), mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 200, 200)),
			"handoffs not counted"},
		{"a baseline without host-work counts gates only the speed",
			mustRecord(t, "hostspeed", struct{}{}, hostWork(1, 100, 200, 200)), mustRecord(t, "hostspeed", struct{}{}, hostSpeed(1)), ""},
		{"hostspeed at another config is an error",
			mustRecord(t, "hostspeed", HostSpeedReport{Parallel: 1}, hostSpeed(1)),
			mustRecord(t, "hostspeed", HostSpeedReport{}, hostSpeed(1)), "config differs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := GateRecord(tc.fresh, tc.base)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckRecordBadPoint gives every report type that carries a
// correctness field one bad point: CheckRecord must fail it, gated or not,
// and pass the same report without it.
func TestCheckRecordBadPoint(t *testing.T) {
	cases := map[string]func(bad string) ([]byte, error){
		"results": func(bad string) ([]byte, error) {
			return EncodeResults("2c", SweepConfig{}, []Result{{Engine: "Lock"}, {Engine: "HCF", InvariantViolation: bad}})
		},
		"kv": func(bad string) ([]byte, error) {
			return (&KVReport{Points: []KVPoint{{RecoveryOK: true}, {RecoveryOK: bad == ""}}}).Record()
		},
		"openloop": func(bad string) ([]byte, error) {
			return (&OpenLoopReport{Points: []OpenLoopPoint{{}, {InvariantViolation: bad}}}).Record()
		},
		"elastic": func(bad string) ([]byte, error) {
			return (&ElasticReport{Points: []ElasticPoint{{}, {InvariantViolation: bad}}}).Record()
		},
		"autotune": func(bad string) ([]byte, error) {
			return (&AutotuneReport{Variants: []AutotuneVariant{{Name: "a"}, {Name: "b", InvariantViolation: bad}}}).Record()
		},
		"hostspeed": func(bad string) ([]byte, error) {
			return (&HostSpeedReport{Point: HostSpeedPoint{InvariantViolation: bad}}).Record()
		},
	}
	for name, encode := range cases {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", "boom"} {
				err := CheckRecord(readBack(t, func() ([]byte, error) { return encode(bad) }))
				if (err != nil) != (bad != "") {
					t.Fatalf("bad=%q: CheckRecord = %v", bad, err)
				}
			}
		})
	}
}

// TestCheckRecordAutotuneFloor pins the autotune record's correctness
// rule: the tuned run must reach AutotuneFloor times the paper
// configuration's total throughput, and a record with only one of the
// two rows fails.
func TestCheckRecordAutotuneFloor(t *testing.T) {
	paper := AutotuneVariant{Name: "HCF-paper", Throughput: 1000}
	for _, tc := range []struct {
		name     string
		variants []AutotuneVariant
		ok       bool
	}{
		{"at the floor", []AutotuneVariant{paper, {Name: "HCF-tuned", Tuned: true, Throughput: 900}}, true},
		{"below the floor", []AutotuneVariant{paper, {Name: "HCF-tuned", Tuned: true, Throughput: 899}}, false},
		{"no tuned row", []AutotuneVariant{paper}, false},
		{"no paper row", []AutotuneVariant{{Name: "HCF-tuned", Tuned: true, Throughput: 900}}, false},
	} {
		rep := &AutotuneReport{Variants: tc.variants}
		err := CheckRecord(readBack(t, rep.Record))
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckRecord = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCheckedInRecords reads every bench/*.jsonl record through the one
// reader and pins its figure. The elastic CI job gates its record
// exactly, so this test also keeps the healing story that record tells
// (CheckElasticGate) pinned to it.
func TestCheckedInRecords(t *testing.T) {
	want := map[string]string{
		"AUTOTUNE_sweep.jsonl": "autotune",
		"BENCH_native.jsonl":   "native",
		"ELASTIC_sweep.jsonl":  "elastic",
		"HOSTSPEED.jsonl":      "hostspeed",
		"KV_sweep.jsonl":       "kv",
		"OPENLOOP_sweep.jsonl": "openloop",
		"SHARDED_sweep.jsonl":  "sharded",
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "bench", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("bench/ has %d records, want %d: %v", len(files), len(want), files)
	}
	for _, path := range files {
		name := filepath.Base(path)
		figure, ok := want[name]
		if !ok {
			t.Errorf("%s: no figure pinned for this record", name)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ParseRecord(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Figure != figure || len(rec.Points) == 0 {
			t.Errorf("%s: figure %q with %d points, want figure %q", name, rec.Figure, len(rec.Points), figure)
		}
		if err := CheckRecord(rec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if figure == "elastic" {
			rep := &ElasticReport{}
			rep.Points = decodeRecord[ElasticPoint](t, data, "elastic", rep)
			if err := CheckElasticGate(rep); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
