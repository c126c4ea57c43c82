package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestGoldenResults pins the simulated results of fixed-seed reference
// sweeps — every engine, several structures — to golden files recorded
// before the host-side performance work (run-until-preempted scheduling,
// passive spin-waits, pooled HTM read/write sets). Any divergence means a
// host-side optimization changed simulated behaviour, which is a bug by
// definition: these optimizations must be invisible at the cycle level.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		file    string
		fig     string
		threads []int
		horizon int64
		seed    uint64
	}{
		{"golden_hashtable40.jsonl", "2c", []int{1, 2, 4}, 50_000, 1},
		{"golden_avl40.jsonl", "5b", []int{1, 4}, 30_000, 7},
		{"golden_pqueue.jsonl", "pqueue", []int{3}, 30_000, 5},
	}
	for _, tc := range cases {
		t.Run(tc.fig, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			fig, err := FigureByID(tc.fig)
			if err != nil {
				t.Fatal(err)
			}
			fig.Threads = tc.threads
			results, err := RunFigure(fig, Config{Horizon: tc.horizon, Seed: tc.seed})
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
