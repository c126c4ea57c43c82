package main

import (
	"strings"
	"testing"

	"hcf/internal/memsim"
)

func TestFuzzSmall(t *testing.T) {
	if err := run([]string{"-seeds", "2", "-ops", "15", "-threads", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzExploreSweep(t *testing.T) {
	if err := run([]string{"-explore", "-seeds", "3", "-ops", "15", "-threads", "4",
		"-scenario", "counter,hashtable,avl"}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzExploreNeedsPerturbation(t *testing.T) {
	err := run([]string{"-explore", "-preempt-budget", "0", "-jitter-class", "0", "-seeds", "1"})
	if err == nil || !strings.Contains(err.Error(), "-explore needs") {
		t.Errorf("explore with no perturbation accepted: %v", err)
	}
}

// TestExploredArtifactByteIdentical pins the acceptance criterion that
// replaying any (config, seed) combination twice yields byte-identical
// witness recordings and flight-recorder dumps — the property that makes
// every sweep failure exactly reproducible from its printed repro line.
func TestExploredArtifactByteIdentical(t *testing.T) {
	for _, scen := range []string{"counter", "hashtable", "avl"} {
		for _, explore := range []bool{false, true} {
			cfg := fuzzCfg{threads: 5, perThread: 20, jitterPct: 40, flight: 64}
			if explore {
				cfg.explore = memsim.ExploreConfig{PreemptBudget: 32, JitterClass: 2}
			}
			for seed := uint64(0); seed < 3; seed++ {
				a, err := fuzzOne(cfg, "HCF", scen, seed)
				if err != nil {
					t.Fatalf("%s seed %d explore=%v: %v", scen, seed, explore, err)
				}
				b, err := fuzzOne(cfg, "HCF", scen, seed)
				if err != nil {
					t.Fatalf("%s seed %d explore=%v (replay): %v", scen, seed, explore, err)
				}
				if a == "" {
					t.Fatalf("%s seed %d: empty witness artifact", scen, seed)
				}
				if a != b {
					t.Fatalf("%s seed %d explore=%v: replay artifact diverged;\nfirst:\n%s\nsecond:\n%s",
						scen, seed, explore, a, b)
				}
			}
		}
	}
}

func TestReproCommandRoundTrips(t *testing.T) {
	cfg := fuzzCfg{threads: 5, perThread: 20, jitterPct: 40, flight: 64,
		explore: memsim.ExploreConfig{PreemptBudget: 32, JitterClass: 2}}
	line := cfg.reproCommand("HCF", "avl", 17)
	args := strings.Fields(line)
	if args[0] != "go" || args[1] != "run" || args[2] != "./cmd/hcffuzz" {
		t.Fatalf("repro line is not a go run command: %s", line)
	}
	// The printed line, fed back through the flag parser, must replay the
	// exact failing combination (and pass, since head is clean).
	if err := run(args[3:]); err != nil {
		t.Fatalf("repro line failed to replay: %s\n%v", line, err)
	}
}

// TestFuzzShardedScenario runs the sharded workload under every engine that
// can execute it, including the sharded HCF variant whose combiners run
// concurrently on different shards, with explored (adversarial) schedules.
func TestFuzzShardedScenario(t *testing.T) {
	if err := run([]string{"-seeds", "3", "-ops", "15", "-threads", "4",
		"-scenario", "sharded", "-engines", "Lock,HCF,HCF-S"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-explore", "-seeds", "3", "-ops", "15", "-threads", "4",
		"-scenario", "sharded", "-engines", "HCF-S"}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzShardedNeedsPlan pins the error when HCF-S is asked to run a
// scenario without a sharding plan.
func TestFuzzShardedNeedsPlan(t *testing.T) {
	err := run([]string{"-seeds", "1", "-scenario", "hashtable", "-engines", "HCF-S"})
	if err == nil || !strings.Contains(err.Error(), "sharded scenario") {
		t.Errorf("HCF-S over unsharded scenario accepted: %v", err)
	}
}

// TestFuzzElasticScenario runs the live-topology workload: thread 0
// splits a shard a third of the way through its schedule and merges one
// back two thirds through, racing the witnessed traffic, with the
// witness checking linearizability across both topology changes — under
// plain and explored (adversarial) schedules. Enough operations per
// thread that both reshape points land mid-traffic.
func TestFuzzElasticScenario(t *testing.T) {
	if err := run([]string{"-seeds", "4", "-ops", "30", "-threads", "4",
		"-scenario", "elastic", "-engines", "HCF-E"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-explore", "-seeds", "4", "-ops", "30", "-threads", "4",
		"-scenario", "elastic", "-engines", "HCF-E"}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzElasticNeedsPlan pins the error when HCF-E is asked to run a
// scenario without an elastic plan.
func TestFuzzElasticNeedsPlan(t *testing.T) {
	err := run([]string{"-seeds", "1", "-scenario", "sharded", "-engines", "HCF-E"})
	if err == nil || !strings.Contains(err.Error(), "elastic scenario") {
		t.Errorf("HCF-E over non-elastic scenario accepted: %v", err)
	}
}

// TestElasticArtifactByteIdentical extends the byte-identity pin to the
// resharding scenario: splits and merges injected mid-schedule must not
// break exact replay of any (config, seed) combination.
func TestElasticArtifactByteIdentical(t *testing.T) {
	for _, explore := range []bool{false, true} {
		cfg := fuzzCfg{threads: 4, perThread: 30, jitterPct: 40, flight: 64}
		if explore {
			cfg.explore = memsim.ExploreConfig{PreemptBudget: 32, JitterClass: 2}
		}
		for seed := uint64(0); seed < 3; seed++ {
			a, err := fuzzOne(cfg, "HCF-E", "elastic", seed)
			if err != nil {
				t.Fatalf("elastic seed %d explore=%v: %v", seed, explore, err)
			}
			b, err := fuzzOne(cfg, "HCF-E", "elastic", seed)
			if err != nil {
				t.Fatalf("elastic seed %d explore=%v (replay): %v", seed, explore, err)
			}
			if a == "" || a != b {
				t.Fatalf("elastic seed %d explore=%v: replay artifact diverged", seed, explore)
			}
		}
	}
}

func TestFuzzCounterScenario(t *testing.T) {
	if err := run([]string{"-seeds", "2", "-ops", "15", "-threads", "4",
		"-scenario", "counter", "-engines", "HCF,FC"}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzErrors(t *testing.T) {
	if err := run([]string{"-scenario", "nope", "-seeds", "1"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-engines", "nope", "-seeds", "1"}); err == nil {
		t.Error("unknown engine accepted")
	}
	for _, threads := range []string{"0", "-1"} {
		if err := run([]string{"-threads", threads, "-seeds", "1"}); err == nil {
			t.Errorf("-threads %s accepted", threads)
		}
	}
}
