package harness

import (
	"strings"
	"testing"
)

// kvTestOptions is a small, fsync-free sweep that still exercises the
// whole pipeline: arrivals, mixes, sojourn recording, SLO evaluation,
// group-commit stats and the recovery replay check.
func kvTestOptions() KVSweepOptions {
	return KVSweepOptions{
		Workers: 4,
		Shards:  2,
		// High enough that each 60ms point clears kvGateMinSamples
		// (so the self-gate exercises the ratio gate, not the
		// small-sample exclusion).
		Users:       []uint64{10000, 20000},
		GetPcts:     []int{90},
		DurationMS:  60,
		Keys:        1 << 10,
		ValueLen:    32,
		Seed:        7,
		DisableSync: true,
	}
}

func TestKVSweepSmoke(t *testing.T) {
	rep, err := RunKVSweep(kvTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Arrivals == 0 || p.Completed != p.Arrivals {
			t.Fatalf("users=%d: arrivals=%d completed=%d", p.Users, p.Arrivals, p.Completed)
		}
		if p.Sojourn.Count != p.Completed || p.Sojourn.P99 == 0 {
			t.Fatalf("users=%d: sojourn stat empty: %+v", p.Users, p.Sojourn)
		}
		if p.Sojourn.P999 < p.Sojourn.P99 || p.Sojourn.P99 < p.Sojourn.P50 {
			t.Fatalf("users=%d: quantiles not monotone: %+v", p.Users, p.Sojourn)
		}
		if p.SLOState == "" || p.SLO == nil || len(p.SLO.Objectives) != 2 {
			t.Fatalf("users=%d: SLO verdicts missing (state %q)", p.Users, p.SLOState)
		}
		for _, o := range p.SLO.Objectives {
			if o.State == "" || o.Total == 0 {
				t.Fatalf("users=%d: objective not evaluated: %+v", p.Users, o)
			}
		}
		if p.Flushes == 0 || p.AppendedBytes == 0 || p.WritesPerFlush < 1 {
			t.Fatalf("users=%d: group-commit stats empty: flushes=%d bytes=%d wpf=%.2f",
				p.Users, p.Flushes, p.AppendedBytes, p.WritesPerFlush)
		}
		if !p.RecoveryOK {
			t.Fatalf("users=%d: recovery replay mismatch", p.Users)
		}
		if len(p.ByClass) != 3 {
			t.Fatalf("users=%d: got %d class rows, want 3", p.Users, len(p.ByClass))
		}
	}
	if !strings.Contains(rep.Text(), "wr/flush") {
		t.Fatal("Text() missing group-commit column")
	}
}

// TestKVJSONLRoundTripAndBaseline round-trips the sweep through its
// record and gates the record against itself (the gate's cases live in
// TestGateRecord).
func TestKVJSONLRoundTripAndBaseline(t *testing.T) {
	rep, err := RunKVSweep(kvTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Record()
	if err != nil {
		t.Fatal(err)
	}
	var hdr KVReport
	back := decodeRecord[KVPoint](t, data, "kv", &hdr)
	if len(back) != len(rep.Points) || hdr.Workers != rep.Workers || hdr.Seed != rep.Seed {
		t.Fatalf("round trip mismatch: %d points, workers %d", len(back), hdr.Workers)
	}
	for i := range back {
		if back[i].Sojourn.P99 != rep.Points[i].Sojourn.P99 {
			t.Fatalf("point %d p99 changed across round trip", i)
		}
	}
	rec, err := ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRecord(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := GateRecord(rec, rec); err != nil {
		t.Fatalf("self-gate: %v", err)
	}
}
