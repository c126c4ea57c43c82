package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hcf/internal/memsim"
)

// TestGoldenResults pins the simulated results of fixed-seed reference
// sweeps — every engine, several structures — to golden files recorded
// before the host-side performance work it guards (run-until-preempted
// scheduling, passive spin-waits, waiters parked off the scheduler heap,
// pooled HTM read/write sets). Any divergence means a host-side
// optimization changed simulated behaviour, which is a bug by definition:
// these optimizations must be invisible at the cycle level. The 8- to
// 72-thread and explored cases cover the convoys of passive waiters that
// barely form at 4 threads. The 36-thread explored case puts injected
// preemptions, which can lower the running thread's key, among convoys of
// parked waiters.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name    string
		file    string
		fig     string
		threads []int
		horizon int64
		seed    uint64
		explore memsim.ExploreConfig // non-zero: one explored point per engine
	}{
		{"2c", "golden_hashtable40.jsonl", "2c", []int{1, 2, 4}, 50_000, 1, memsim.ExploreConfig{}},
		{"5b", "golden_avl40.jsonl", "5b", []int{1, 4}, 30_000, 7, memsim.ExploreConfig{}},
		{"pqueue", "golden_pqueue.jsonl", "pqueue", []int{3}, 30_000, 5, memsim.ExploreConfig{}},
		{"2c-wide", "golden_hashtable40_wide.jsonl", "2c", []int{8, 36}, 50_000, 1, memsim.ExploreConfig{}},
		{"2b-72", "golden_hashtable80_numa72.jsonl", "2b", []int{72}, 30_000, 3, memsim.ExploreConfig{}},
		{"2c-explored", "golden_hashtable40_explored12.jsonl", "2c", []int{12}, 30_000, 11,
			memsim.ExploreConfig{Seed: 17, PreemptBudget: 48, JitterClass: 2}},
		{"2c-explored36", "golden_hashtable40_explored36.jsonl", "2c", []int{36}, 30_000, 11,
			memsim.ExploreConfig{Seed: 29, PreemptBudget: 64, JitterClass: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			fig, err := FigureByID(tc.fig)
			if err != nil {
				t.Fatal(err)
			}
			fig.Threads = tc.threads
			cfg := Config{Horizon: tc.horizon, Seed: tc.seed}
			var results []Result
			if tc.explore == (memsim.ExploreConfig{}) {
				results, err = RunFigure(fig, cfg)
			} else {
				results, err = exploredFigure(fig, cfg, tc.explore)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := resultLines(t, results)
			if got != string(want) {
				t.Errorf("results diverged from golden %s;\ngot:\n%s\nwant:\n%s",
					tc.file, got, want)
			}
		})
	}
}

// exploredFigure measures every engine of a single-cost-model figure at
// each thread count under schedule exploration ex.
func exploredFigure(fig Figure, cfg Config, ex memsim.ExploreConfig) ([]Result, error) {
	var results []Result
	for _, th := range fig.Threads {
		for _, eng := range fig.Engines {
			r, _, _, err := RunPointWith(fig.Scenario, eng, th, cfg, PointOptions{Explore: ex})
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}
	return results, nil
}

// TestRunSweepParallelMatchesSerial checks that measuring sweep points
// concurrently on the host returns exactly the results of a serial sweep,
// in the same order.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	sc := HashTableScenario(40, 1024)
	threads := []int{1, 2, 3}
	serial, err := RunSweep(sc, EngineNames, threads, Config{Horizon: 10_000, Seed: 9, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(sc, EngineNames, threads, Config{Horizon: 10_000, Seed: 9, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
