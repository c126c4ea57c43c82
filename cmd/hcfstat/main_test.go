package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"hcf/internal/metrics"
)

// captureRun executes run(args) with stdout captured.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := captureRunErr(t, args...)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out
}

// captureRunErr executes run(args) with stdout captured and returns what
// it printed and its error.
func captureRunErr(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := run(args)
	os.Stdout = old
	w.Close()
	return string(<-done), runErr
}

func TestRunAllScenarios(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque", "sortedlist"} {
		if err := run([]string{"-scenario", sc, "-engine", "HCF", "-threads", "3",
			"-horizon", "5000"}); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "HCF",
		"-threads", "4", "-horizon", "20000", "-format", "json")
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"scenario", "engine", "threads", "ops", "throughput",
		"htm_started", "phase_by_class"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q", key)
		}
	}
	if rec["engine"] != "HCF" || rec["threads"] != float64(4) {
		t.Errorf("identity fields wrong: %v", rec)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "nope"},
		{"-engine", "nope", "-threads", "2", "-horizon", "5000"},
		{"-threads", "0", "-horizon", "5000"},
		{"-threads", "-1", "-horizon", "5000"},
		{"-scenario", "elastic", "-threads", "0", "-horizon", "5000"},
		{"-scenario", "elastic", "-format", "metrics"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// Flags the chosen scenario or format would silently ignore are errors.
	for _, args := range [][]string{
		{"-scenario", "pqueue", "-find", "90"},
		{"-scenario", "hashtable", "-theta", "0.5"},
		{"-scenario", "elastic", "-engine", "HCF"},
		{"-format", "text", "-interval", "100"},
		{"-format", "metrics", "-timeline", "5"},
		{"-format", "chrome", "-timeline", "5"},
		{"-format", "trace", "-serve", "127.0.0.1:0"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "does not use") {
			t.Errorf("%v: got %v, want an ignored-flag error", args, err)
		}
	}
}

// TestRunElastic runs the elastic report on a small horizon: the
// decision journal, topology block and JSON shape must all come out.
func TestRunElastic(t *testing.T) {
	if err := run([]string{"-scenario", "elastic", "-hot", "90", "-threads", "4",
		"-horizon", "100000", "-decisions", "3"}); err != nil {
		t.Fatal(err)
	}
	out := captureRun(t, "-scenario", "elastic", "-hot", "90", "-threads", "4",
		"-horizon", "100000", "-format", "json")
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	for _, key := range []string{"scenario", "engine", "mode", "topology", "decisions"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing %q", key)
		}
	}
	if rec["engine"] != "HCF-E" {
		t.Errorf("identity fields wrong: %v", rec["engine"])
	}
}

// TestAcceptanceInvocation runs the metrics report the subsystem is
// specified against and checks for the per-interval series and the
// percentile table.
func TestAcceptanceInvocation(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "HCF",
		"-threads", "18", "-format", "metrics", "-interval", "10000")
	for _, want := range []string{
		"interval series (every 10000 cycles):",
		"thrpt", "commits", "aborts", "degree",
		"operation latency by class (cycles):",
		"p50", "p90", "p99",
		"find", "insert", "remove",
		"transaction duration by outcome (cycles):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The default 200k-cycle horizon sampled every 10k must produce a
	// substantial series, one line per interval.
	if n := strings.Count(out, "\n"); n < 25 {
		t.Errorf("only %d output lines, want a full interval series + tables:\n%s", n, out)
	}
}

func TestAllScenariosAllEngines(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque"} {
		for _, eng := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
			out := captureRun(t, "-scenario", sc, "-engine", eng, "-format", "metrics",
				"-threads", "3", "-horizon", "6000", "-interval", "2000")
			if !strings.Contains(out, "unit      cycles") {
				t.Errorf("%s/%s: unexpected output:\n%s", sc, eng, out)
			}
		}
	}
}

func TestJSONFormatRoundTrips(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "HCF",
		"-threads", "4", "-horizon", "20000", "-interval", "5000", "-format", "metrics-json")
	var rep metrics.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if rep.Scenario == "" || rep.Engine != "HCF" || rep.Threads != 4 {
		t.Errorf("identity fields: %+v", rep)
	}
	if rep.Totals.Ops == 0 || len(rep.Intervals) == 0 || len(rep.ClassLatency) == 0 {
		t.Errorf("empty report sections: ops %d, intervals %d, classes %d",
			rep.Totals.Ops, len(rep.Intervals), len(rep.ClassLatency))
	}
}

func TestCSVFormatParses(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-engine", "TLE",
		"-threads", "4", "-horizon", "20000", "-interval", "5000", "-format", "csv")
	tables := strings.Split(out, "\n\n")
	if len(tables) != 2 {
		t.Fatalf("want 2 CSV tables, got %d", len(tables))
	}
	for i, table := range tables {
		rows, err := csv.NewReader(strings.NewReader(table)).ReadAll()
		if err != nil {
			t.Fatalf("table %d does not parse: %v\n%s", i, err, table)
		}
		if len(rows) < 2 {
			t.Errorf("table %d has no data rows:\n%s", i, table)
		}
	}
}

func TestPromFormatParses(t *testing.T) {
	out := captureRun(t, "-scenario", "stack", "-engine", "FC",
		"-threads", "4", "-horizon", "20000", "-format", "prom")
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.Contains(fields[0], "{") {
			t.Errorf("malformed sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Error("no samples in prom output")
	}
	if !strings.Contains(out, `hcf_ops_total{scenario="stack/push=50%",engine="FC",`) {
		t.Errorf("missing base labels:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{"-format", "metrics", "-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-format", "metrics", "-engine", "nope", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-format", "xml", "-threads", "2", "-horizon", "5000"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunScenarios(t *testing.T) {
	for _, sc := range []string{"hashtable", "avl", "pqueue", "stack", "deque", "sortedlist"} {
		if _, err := captureRunErr(t, "-format", "trace", "-scenario", sc, "-threads", "3", "-horizon", "5000"); err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
	}
}

func TestRunAllEngines(t *testing.T) {
	for _, eng := range []string{"Lock", "TLE", "FC", "SCM", "TLE+FC", "HCF"} {
		if _, err := captureRunErr(t, "-format", "trace", "-scenario", "hashtable", "-engine", eng,
			"-threads", "3", "-horizon", "4000"); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
}

func TestRunTimelineAndErrors(t *testing.T) {
	out := captureRun(t, "-format", "trace", "-scenario", "pqueue", "-threads", "2", "-horizon", "4000",
		"-timeline", "5")
	if !strings.Contains(out, "first 5 events:") {
		t.Errorf("timeline missing:\n%s", out)
	}
	if err := run([]string{"-format", "trace", "-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-format", "trace", "-engine", "nope"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-format", "nope"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestJSONOutput(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-threads", "3",
		"-horizon", "5000", "-format", "trace-json")
	var doc struct {
		Engine  string `json:"engine"`
		Ops     uint64 `json:"ops"`
		Summary struct {
			Starts uint64 `json:"starts"`
		} `json:"summary"`
		Spans struct {
			Spans uint64 `json:"spans"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-format trace-json output is not valid JSON: %v", err)
	}
	if doc.Engine != "HCF" || doc.Ops == 0 {
		t.Errorf("doc = %+v", doc)
	}
	if doc.Summary.Starts != doc.Ops || doc.Spans.Spans != doc.Ops {
		t.Errorf("starts %d / spans %d / ops %d disagree",
			doc.Summary.Starts, doc.Spans.Spans, doc.Ops)
	}
}

func TestChromeOutput(t *testing.T) {
	out := captureRun(t, "-scenario", "hashtable", "-threads", "4",
		"-horizon", "8000", "-format", "chrome")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if cat, ok := ev["cat"].(string); ok {
			kinds[cat] = true
		}
	}
	for _, want := range []string{"op", "phase"} {
		if !kinds[want] {
			t.Errorf("chrome trace has no %q slices", want)
		}
	}
}

func TestFlightRecorderLimit(t *testing.T) {
	if _, err := captureRunErr(t, "-format", "trace", "-scenario", "hashtable", "-threads", "3",
		"-horizon", "6000", "-limit", "32"); err != nil {
		t.Fatal(err)
	}
}
