package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 8,36")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 36 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := parseInts("0"); err == nil {
		t.Error("zero accepted")
	}
	if _, err := parseInts("-3"); err == nil {
		t.Error("negative accepted")
	}
}

func TestRunListAndErrors(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
	if err := run([]string{}); err == nil {
		t.Error("missing -fig accepted")
	}
	if err := run([]string{"-fig", "nope"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-fig", "2a", "-threads", "bad"}); err == nil {
		t.Error("bad thread list accepted")
	}
	// Flags the chosen figure would silently ignore are errors.
	for _, args := range [][]string{
		{"-fig", "native", "-csv"},
		{"-fig", "kv", "-csv"},
		{"-fig", "elastic", "-csv"},
		{"-fig", "openloop", "-csv"},
		{"-fig", "hostspeed", "-csv"},
		{"-fig", "native", "-engines", "Lock"},
		{"-fig", "kv", "-engines", "Lock"},
		{"-fig", "elastic", "-engines", "Lock"},
		{"-fig", "2c", "-rates", "1000"},
		{"-fig", "elastic", "-rates", "1000"},
		{"-fig", "native", "-rates", "1000"},
		{"-fig", "autotune", "-csv"},
		{"-fig", "autotune", "-engines", "HCF"},
		{"-fig", "2c", "-journal-out", "j.json"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "does not use") {
			t.Errorf("%v: got %v, want an ignored-flag error", args, err)
		}
	}
}

// captureRun runs hcfbench with args and returns what it printed.
func captureRun(t *testing.T, args ...string) ([]byte, error) {
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
	return <-done, runErr
}

func TestRunTinyFigure(t *testing.T) {
	err := run([]string{"-fig", "stack", "-threads", "2", "-horizon", "5000",
		"-engines", "Lock,HCF", "-csv"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunJSONL checks -json emits the figure's record: a header line,
// then one parseable point per (scenario, engine, threads) cell.
func TestRunJSONL(t *testing.T) {
	out, err := captureRun(t, "-fig", "stack", "-threads", "2,3", "-horizon", "5000",
		"-engines", "Lock,HCF", "-json")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 5 { // header + 2 thread counts x 2 engines
		t.Fatalf("got %d JSONL lines, want 5:\n%s", len(lines), out)
	}
	var hdr map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr["figure"] != "stack" {
		t.Fatalf("header %s: figure %v, err %v", lines[0], hdr["figure"], err)
	}
	for _, line := range lines[1:] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record does not parse: %v\n%s", err, line)
		}
		for _, key := range []string{"scenario", "engine", "threads", "ops", "throughput"} {
			if _, ok := rec[key]; !ok {
				t.Errorf("record missing %q: %s", key, line)
			}
		}
	}
}

// TestRunGate gates a fresh run against its own record, then against a
// copy with one number changed.
func TestRunGate(t *testing.T) {
	args := []string{"-fig", "stack", "-threads", "2", "-horizon", "5000", "-engines", "Lock,HCF", "-json"}
	out, err := captureRun(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.jsonl")
	if err := os.WriteFile(base, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureRun(t, append(args, "-gate", base)...); err != nil {
		t.Fatalf("self-gate failed: %v", err)
	}
	edited := strings.Replace(string(out), `"ops":`, `"ops":1`, 1)
	if err := os.WriteFile(base, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureRun(t, append(args, "-gate", base)...); err == nil {
		t.Fatal("gate passed against an edited baseline")
	}
}

// TestRunAutotune runs -fig autotune at a small horizon: -json must emit
// the record format of bench/AUTOTUNE_sweep.jsonl (same header config
// keys, autotune rows), and -journal-out must write the journal.
func TestRunAutotune(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.json")
	out, err := captureRun(t, "-fig", "autotune", "-threads", "4", "-horizon", "30000",
		"-json", "-journal-out", journal)
	if err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join("..", "..", "bench", "AUTOTUNE_sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	keys := func(data []byte) []string {
		var hdr struct {
			Figure string                     `json:"figure"`
			Config map[string]json.RawMessage `json:"config"`
		}
		line, _, _ := strings.Cut(string(data), "\n")
		if err := json.Unmarshal([]byte(line), &hdr); err != nil || hdr.Figure != "autotune" {
			t.Fatalf("header %s: figure %q, err %v", line, hdr.Figure, err)
		}
		var ks []string
		for k := range hdr.Config {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if got, want := keys(out), keys(base); !reflect.DeepEqual(got, want) {
		t.Errorf("header config keys %v, want the checked-in record's %v", got, want)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")[1:]
	if len(lines) == 0 {
		t.Fatal("record has no points")
	}
	for _, line := range lines {
		var row struct {
			Variant string `json:"variant"`
			Region  string `json:"region"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil || row.Variant == "" || row.Region == "" {
			t.Fatalf("point is not an autotune row (err %v): %s", err, line)
		}
	}
	if data, err := os.ReadFile(journal); err != nil || !json.Valid(data) {
		t.Errorf("-journal-out: err %v, valid JSON %v", err, json.Valid(data))
	}
}
