package harness

import (
	"reflect"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/memsim"
)

// instrumentCombo is one PointOptions setting that must leave a run's
// Result bit-identical to RunPoint's.
type instrumentCombo struct {
	name string
	opts PointOptions
}

// TestExploredZeroConfigMatchesRunPoint pins that RunPointWith with a zero
// ExploreConfig IS RunPoint: same environment construction, same scheduler
// fast path, bit-identical Result. The golden JSONL fixtures
// (perf_test.go) pin the same property against recordings made before the
// exploration layer existed.
func TestExploredZeroConfigMatchesRunPoint(t *testing.T) {
	checkInstrumentsInvisible(t, []instrumentCombo{
		{"zero", PointOptions{Explore: memsim.ExploreConfig{}}},
	})
}

// TestTracingDoesNotPerturbRun is the zero-perturbation acceptance test:
// recording with the flight recorder on the deterministic backend must
// leave the run's results bit-identical to an untraced run, both with an
// unbounded collector and a tight flight-recorder ring.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	checkInstrumentsInvisible(t, []instrumentCombo{
		{"trace", PointOptions{Trace: true}},
		{"trace-ring", PointOptions{Trace: true, TraceLimit: 16}},
	})
}

// TestMeteredRunIsDeterministic checks the key design invariant of the
// metrics subsystem: recording reads thread-local clocks only and charges
// no simulated cycles, so an instrumented run — alone or together with
// tracing — produces a bit-identical Result to the uninstrumented one.
func TestMeteredRunIsDeterministic(t *testing.T) {
	checkInstrumentsInvisible(t, []instrumentCombo{
		{"metrics", PointOptions{Metrics: true, Interval: 5_000}},
		{"metrics+trace-ring", PointOptions{Metrics: true, Interval: 5_000, Trace: true, TraceLimit: 16}},
	})
}

// checkInstrumentsInvisible runs every known engine under each combo that
// it supports and requires RunPoint's Result exactly. The sharded engines
// run on the sharded hash-table scenario, which carries their routing
// plans.
func checkInstrumentsInvisible(t *testing.T, combos []instrumentCombo) {
	t.Helper()
	cfg := Config{Horizon: 20_000, Seed: 7}
	for _, name := range KnownEngineNames() {
		sc := HashTableScenario(40, 1024)
		if name == ShardedEngineName || name == ElasticEngineName {
			sc = ShardedHashTableScenario(40, 1024, 4, 2, 0)
		}
		plain, err := RunPoint(sc, name, 4, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		metered, traced := supports(t, sc, name)
		for _, c := range combos {
			if (c.opts.Metrics && !metered) || (c.opts.Trace && !traced) {
				continue
			}
			res, rep, col, err := RunPointWith(sc, name, 4, cfg, c.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.name, err)
			}
			if !reflect.DeepEqual(res, plain) {
				t.Errorf("%s %s: diverged from RunPoint:\n%+v\nvs\n%+v", name, c.name, res, plain)
			}
			if (rep != nil) != c.opts.Metrics || (col != nil) != c.opts.Trace {
				t.Fatalf("%s %s: report %v, collector %v", name, c.name, rep != nil, col != nil)
			}
			if rep != nil && rep.Totals.Ops != res.Ops {
				t.Errorf("%s %s: report totals %d ops, result has %d", name, c.name, rep.Totals.Ops, res.Ops)
			}
			if rep != nil && (rep.Trace != nil) != c.opts.Trace {
				t.Errorf("%s %s: report trace health %v", name, c.name, rep.Trace != nil)
			}
			if col != nil && col.Starts() == 0 {
				t.Errorf("%s %s: collector saw no operations", name, c.name)
			}
		}
	}
}

// supports reports whether the named engine accepts a metrics recorder
// and a trace collector.
func supports(t *testing.T, sc Scenario, name string) (metered, traced bool) {
	t.Helper()
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	eng, err := BuildEngine(name, env, sc.Setup(env, 1), Config{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	_, metered = eng.(engine.MeteredEngine)
	_, traced = eng.(engine.TracedEngine)
	return metered, traced
}

// TestRunPointRejectsNonPositiveThreads pins that a thread count below
// one is an error from the point runners, not a panic in the simulator.
func TestRunPointRejectsNonPositiveThreads(t *testing.T) {
	cfg := Config{Horizon: 1_000, Seed: 1}
	for _, threads := range []int{0, -1} {
		if _, _, _, err := RunPointWith(StackScenario(64), "HCF", threads, cfg, PointOptions{}); err == nil {
			t.Errorf("RunPointWith accepted %d threads", threads)
		}
		sc := ElasticScenario(40, ElasticBuckets, ElasticMaxShards, ElasticInitialShards, 0, 10_000)
		if _, err := RunPointElastic(sc, "elastic", true, threads, cfg, ElasticRunConfig{}); err == nil {
			t.Errorf("RunPointElastic accepted %d threads", threads)
		}
	}
}
