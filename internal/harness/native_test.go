package harness

import (
	"strings"
	"testing"
	"time"
)

// TestRunNativeSweepSmoke runs a tiny sweep end to end: every expected
// cell present, nonzero throughput, record round trip, text renderer.
func TestRunNativeSweepSmoke(t *testing.T) {
	rep, err := RunNativeSweep(NativeOptions{
		Goroutines: []int{1, 2},
		ReadPcts:   []int{50},
		Duration:   10 * time.Millisecond,
		Keyspace:   1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 hashtable engines x 2 goroutine counts + 2 pqueue engines x 2.
	if want := 4*2 + 2*2; len(rep.Points) != want {
		t.Fatalf("points = %d, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Ops == 0 || p.OpsPerSec <= 0 {
			t.Fatalf("empty point: %+v", p)
		}
	}
	data, err := rep.Record()
	if err != nil {
		t.Fatal(err)
	}
	if back := decodeRecord[NativePoint](t, data, "native", nil); len(back) != len(rep.Points) {
		t.Fatalf("round trip lost points: %d != %d", len(back), len(rep.Points))
	}
	text := FormatNativeReport(rep)
	for _, want := range []string{NativeEngineHCF, NativeEngineMutex, "HCF/Mutex", NativeStructPQ} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, text)
		}
	}
}

// nativeRecord encodes a native report through its Record method and reads
// it back with the one record reader.
func nativeRecord(t *testing.T, pts []NativePoint) *Record {
	t.Helper()
	return readBack(t, (&NativeReport{Points: pts}).Record)
}

// TestParseNativeReportRejectsWrongKind: the reader rejects the old
// headerless native report, and the gate rejects a native baseline with
// no points or a record of another figure.
func TestParseNativeReportRejectsWrongKind(t *testing.T) {
	if _, err := ParseRecord([]byte(`{"kind":"other","points":[{}]}`)); err == nil {
		t.Fatal("record without a figure accepted")
	}
	fresh := nativeRecord(t, nativePoints(1, nil))
	if _, err := GateRecord(fresh, nativeRecord(t, []NativePoint{})); err == nil {
		t.Fatal("empty native baseline accepted")
	}
	if _, err := GateRecord(fresh, mustRecord(t, "kv", struct{}{}, kvPoints(1000, 100))); err == nil {
		t.Fatal("native record gated against a kv baseline")
	}
}

// TestCompareNativeBaseline pins the median normalization on records made
// by NativeReport: a uniform hardware-speed shift passes at any
// magnitude; one point collapsing relative to the rest fails.
func TestCompareNativeBaseline(t *testing.T) {
	base := nativeRecord(t, nativePoints(1, nil))

	// 5x faster across the board: a faster machine, not a regression.
	if sum, err := GateRecord(nativeRecord(t, nativePoints(5, nil)), base); err != nil || !strings.HasPrefix(sum, "6 points") {
		t.Fatalf("uniform speedup rejected: %q, %v", sum, err)
	}
	// 10x slower across the board: a slower machine, still fine.
	if _, err := GateRecord(nativeRecord(t, nativePoints(0.1, nil)), base); err != nil {
		t.Fatalf("uniform slowdown rejected: %v", err)
	}
	// One point collapsed to 1/10 of its baseline while the rest held:
	// that is a real relative regression and must fail.
	fresh := nativeRecord(t, nativePoints(1, func(p []NativePoint) { p[0].OpsPerSec /= 10 }))
	if _, err := GateRecord(fresh, base); err == nil {
		t.Fatal("collapsed point passed the gate")
	}
	// Disjoint reports cannot be compared.
	disjoint := nativeRecord(t, []NativePoint{{Structure: "other", Engine: "x", Goroutines: 1, ReadPct: 1, OpsPerSec: 1}})
	if _, err := GateRecord(disjoint, base); err == nil {
		t.Fatal("disjoint reports compared successfully")
	}
}
