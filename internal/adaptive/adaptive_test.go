package adaptive

import (
	"sort"
	"testing"

	"hcf/internal/core"
	"hcf/internal/engine"
	"hcf/internal/memsim"
)

// hotOp increments a single shared counter — speculation almost always
// conflicts under many threads.
type hotOp struct{ addr memsim.Addr }

func (o hotOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o hotOp) Class() int { return 0 }

// coldOp touches a thread-private cell — speculation always succeeds.
type coldOp struct{ addr memsim.Addr }

func (o coldOp) Apply(ctx memsim.Ctx) uint64 {
	v := ctx.Load(o.addr)
	ctx.Store(o.addr, v+1)
	return v
}

func (o coldOp) Class() int { return 1 }

func twoClassFramework(t *testing.T, env memsim.Env) *core.Framework {
	t.Helper()
	fw, err := core.New(env, core.Config{Policies: []core.Policy{
		{Name: "hot", PubArray: 0, TryPrivateTrials: 4, TryVisibleTrials: 3, TryCombiningTrials: 2},
		{Name: "cold", PubArray: 1, TryPrivateTrials: 4, TryVisibleTrials: 3, TryCombiningTrials: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestAdaptationShiftsBudgetsByConflictProfile(t *testing.T) {
	const threads = 12
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 32, LowPrivate: 0.8, HighPrivate: 0.97})
	hot := env.Alloc(1)
	cold := make([]memsim.Addr, threads)
	for i := range cold {
		cold[i] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 400; i++ {
			fw.Execute(th, hotOp{addr: hot})
			fw.Execute(th, coldOp{addr: cold[th.ID()]})
			if th.ID() == 0 && i%50 == 49 {
				tun.Step(th.Now())
			}
		}
	})
	if tun.Steps == 0 {
		t.Fatal("tuner never stepped")
	}
	hotP, _, hotC := fw.Trials(0)
	coldP, _, _ := fw.Trials(1)
	if hotP >= 4 {
		t.Errorf("hot class private budget did not shrink: %d", hotP)
	}
	if hotC <= 2 {
		t.Errorf("hot class combining budget did not grow: %d", hotC)
	}
	if coldP < 4 {
		t.Errorf("cold class private budget shrank: %d", coldP)
	}
	snap := tun.Snapshot()
	if len(snap.Classes) != 2 || snap.String() == "" {
		t.Errorf("bad snapshot: %+v", snap)
	}
}

func TestAdaptationPreservesExactlyOnce(t *testing.T) {
	// Budgets change mid-run; the permutation witness must still hold.
	const threads, perThread = 8, 120
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 16})
	counter := env.Alloc(1)
	results := make([][]uint64, threads)
	env.Run(func(th *memsim.Thread) {
		mine := make([]uint64, 0, perThread)
		for i := 0; i < perThread; i++ {
			mine = append(mine, fw.Execute(th, hotOp{addr: counter}))
			if th.ID() == 1 && i%20 == 19 {
				tun.Step(th.Now())
			}
		}
		results[th.ID()] = mine
	})
	var all []uint64
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != uint64(i) {
			t.Fatalf("permutation broken at %d: %d", i, v)
		}
	}
}

func TestBudgetsNeverGoNegativeOrExplode(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 4})
	fw := twoClassFramework(t, env)
	cfg := TunerConfig{MinOpsPerEpoch: 1, MaxPrivate: 5, MaxCombining: 5}
	tun := NewTuner(fw, nil, nil, cfg)
	hot := env.Alloc(1)
	for round := 0; round < 30; round++ {
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 20; i++ {
				fw.Execute(th, hotOp{addr: hot})
			}
		})
		tun.Step(int64(round))
		for class := 0; class < fw.NumClasses(); class++ {
			p, v, c := fw.Trials(class)
			if p < 0 || v < 0 || c < 0 {
				t.Fatalf("negative budget: %d %d %d", p, v, c)
			}
			if p > cfg.MaxPrivate || c > cfg.MaxCombining {
				t.Fatalf("budget exceeded cap: %d %d", p, c)
			}
		}
	}
}

func TestEpochRequiresMinimumSignal(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 2})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 1000})
	hot := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 20; i++ {
			fw.Execute(th, hotOp{addr: hot})
		}
	})
	tun.Step(0)
	p, v, c := fw.Trials(0)
	if p != 4 || v != 3 || c != 2 {
		t.Fatalf("budgets changed without enough signal: %d %d %d", p, v, c)
	}
	if n := tun.Journal().Len(); n != 0 {
		t.Fatalf("journaled %d decisions without enough signal", n)
	}
}

var _ engine.Op = hotOp{}
var _ engine.Op = coldOp{}
