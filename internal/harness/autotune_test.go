package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestAutotuneDeterministicReplay pins the replay contract of the tuned run:
// the same seed yields a byte-identical record AND a byte-identical
// decision journal, so every artifact in bench/ can be regenerated exactly.
func TestAutotuneDeterministicReplay(t *testing.T) {
	run := func() ([]byte, []byte) {
		rep, err := RunAutotune(10, Config{Horizon: 90_000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := rep.Record()
		if err != nil {
			t.Fatal(err)
		}
		journal, err := rep.Journal.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rows, journal
	}
	rows1, j1 := run()
	rows2, j2 := run()
	if !bytes.Equal(rows1, rows2) {
		t.Errorf("record differs across identical seeds:\n%s\nvs\n%s", rows1, rows2)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("decision journal differs across identical seeds:\n%s\nvs\n%s", j1, j2)
	}
}

// TestAutotuneReportShape checks the report surfaces every piece the tools
// and CI gate consume: per-segment rows, the tuned variant, a traceable
// journal, and the record/text renderings.
func TestAutotuneReportShape(t *testing.T) {
	rep, err := RunAutotune(10, Config{Horizon: 90_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario == "" || len(rep.Variants) != len(AutotuneStatics())+2 {
		t.Fatalf("report shape: scenario=%q variants=%d", rep.Scenario, len(rep.Variants))
	}
	tuned := rep.Tuned()
	if tuned == nil {
		t.Fatal("no tuned variant in report")
	}
	if tuned.InvariantViolation != "" {
		t.Fatalf("tuned run broke invariants: %s", tuned.InvariantViolation)
	}
	if rep.Journal == nil || rep.Journal.Len() == 0 {
		t.Fatal("tuned run produced no decision journal")
	}
	for _, d := range rep.Journal.Decisions() {
		if d.Evidence.Ops == 0 {
			t.Fatalf("decision without evidence: %+v", d)
		}
	}
	if bs := rep.BestStatic(); bs == nil || bs.Tuned {
		t.Fatal("BestStatic missing or tuned")
	}
	rows, err := rep.Record()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rows), "HCF-tuned") {
		t.Errorf("record has no tuned rows:\n%s", rows)
	}
	text := rep.Text()
	for _, want := range []string{"HCF-tuned", "oracle", "post-drift"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q", want)
		}
	}
}
