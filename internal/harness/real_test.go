package harness

import (
	"math/rand/v2"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/hashtable"
	"hcf/internal/witness"
)

// realMapModel replays the sharded hash-table operations sequentially; the
// key space is routed consistently, so one flat map models all sub-tables.
type realMapModel struct{ m map[uint64]uint64 }

func (mm *realMapModel) Apply(op engine.Op) uint64 {
	switch o := op.(type) {
	case hashtable.FindOp:
		v, ok := mm.m[o.Key]
		return engine.Pack(v, ok)
	case hashtable.InsertOp:
		_, existed := mm.m[o.Key]
		mm.m[o.Key] = o.Val
		return engine.PackBool(!existed)
	case hashtable.RemoveOp:
		_, existed := mm.m[o.Key]
		delete(mm.m, o.Key)
		return engine.PackBool(existed)
	case hashtable.SumAllOp:
		var sum uint64
		for _, v := range mm.m {
			sum += v
		}
		return engine.Pack(sum&((1<<63)-1), true)
	}
	return 0
}

func realInsertsLast(op engine.Op) int {
	if _, ok := op.(hashtable.InsertOp); ok {
		return 1
	}
	return 0
}

// TestRunPointRealWitnessed is the end-to-end linearizability check on the
// real-concurrency backend: every engine — including HCF-S and HCF-E, whose
// combiners run concurrently on different shards — must produce a
// serialization witness whose sequential replay reproduces every returned
// result, and leave the structure's invariants intact.
func TestRunPointRealWitnessed(t *testing.T) {
	checkRealWitnessed(t, 48, 3, 4, 0, 11, 250)
}

// TestRunPointRealAllEngines runs every known engine on the
// real-concurrency backend over a hot-skewed sharded table and checks the
// witness, the completed op count and the structural invariants. Under
// -race this doubles as a data-race hunt over every engine's real-backend
// code path.
func TestRunPointRealAllEngines(t *testing.T) {
	checkRealWitnessed(t, 256, 2, 2, 10, 5, 300)
}

// checkRealWitnessed runs ShardedHashTableScenario(40, buckets, shards,
// cross, hot) under every known engine on four real threads, perThread
// operations each, and checks the recorded witness against a sequential
// map model and the scenario's invariants.
func checkRealWitnessed(t *testing.T, buckets, shards, cross, hot int, seed uint64, perThread int) {
	t.Helper()
	const threads = 4
	sc := ShardedHashTableScenario(40, buckets, shards, cross, hot)
	for _, name := range KnownEngineNames() {
		env := memsim.NewReal(memsim.RealConfig{Threads: threads})
		inst := sc.Setup(env, seed)
		// Seed the model by replaying the scenario's prefill stream (Setup
		// inserts buckets/2 uniform keys with value == key from this PCG).
		model := &realMapModel{m: map[uint64]uint64{}}
		pre := rand.New(rand.NewPCG(seed, 0xF17))
		for i := 0; i < buckets/2; i++ {
			k := pre.Uint64N(uint64(buckets))
			model.m[k] = k
		}
		cfg := Config{Seed: seed}
		cfg.normalize()
		eng, err := BuildEngine(name, env, inst, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := &witness.Recorder{}
		eng.(engine.WitnessedEngine).SetWitness(rec.Func())
		env.Run(func(th *memsim.Thread) {
			rng := rand.New(rand.NewPCG(cfg.Seed^0xFEED, uint64(th.ID())+1))
			for i := 0; i < perThread; i++ {
				eng.Execute(th, inst.NextOp(rng))
			}
		})
		if err := witness.Check(rec, model, threads*perThread, realInsertsLast); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if inst.Check != nil {
			if s := inst.Check(env.Boot()); s != "" {
				t.Errorf("%s: invariant violated: %s", name, s)
			}
		}
	}
}
