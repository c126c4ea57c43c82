package core

import (
	"fmt"
	"sort"
	"testing"

	"hcf/internal/engine"
	"hcf/internal/htm"
	"hcf/internal/locks"
	"hcf/internal/memsim"
)

// TestMultiSeedScheduleSweep drives the exactly-once witness across many
// distinct deterministic schedules (different thread counts perturb the
// virtual-time interleaving) — a poor man's schedule exploration.
func TestMultiSeedScheduleSweep(t *testing.T) {
	for _, threads := range []int{2, 3, 5, 7, 9, 13, 17} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			pol := defaultPolicy()
			pol.TryPrivateTrials = threads % 3
			pol.TryVisibleTrials = threads % 4
			pol.TryCombiningTrials = 1 + threads%5
			fw := newFW(t, env, Config{Policies: []Policy{pol}})
			counter := env.Alloc(1)
			runIncWorkload(t, env, fw, counter, 30, 0)
		})
	}
}

// TestStarvationFreedomWithTicketLocks is the §2.3 progress property: with
// starvation-free locks every thread must finish a long, maximally
// contended run (a starved operation would hang the deterministic
// scheduler and fail the test by timeout).
func TestStarvationFreedomWithTicketLocks(t *testing.T) {
	const threads, perThread = 24, 60
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 0
	pol.TryVisibleTrials = 1
	fw := newFW(t, env, Config{
		Policies:         []Policy{pol},
		Lock:             locks.NewTicket(env),
		NewSelectionLock: func(e memsim.Env) locks.Lock { return locks.NewTicket(e) },
	})
	counter := env.Alloc(1)
	finished := make([]bool, threads)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < perThread; i++ {
			fw.Execute(th, incOp{addr: counter})
		}
		finished[th.ID()] = true
	})
	for i, ok := range finished {
		if !ok {
			t.Fatalf("thread %d starved", i)
		}
	}
	if got := env.Boot().Load(counter); got != threads*perThread {
		t.Fatalf("counter = %d", got)
	}
}

// TestSmallBatchChunking forces combining sessions to run many RunMulti
// calls (MaxBatch=2 with a large backlog); completions must stay exact.
func TestSmallBatchChunking(t *testing.T) {
	const threads = 16
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 0
	pol.TryVisibleTrials = 0
	pol.MaxBatch = 2
	fw := newFW(t, env, Config{Policies: []Policy{pol}})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 25, 0)
	m := fw.Metrics()
	if m.CombinerSessions == 0 {
		t.Fatal("no combining sessions")
	}
}

// TestTinyHTMCapacityFallsBackToLock shrinks the transactional write
// capacity so combining transactions cannot commit; everything must drain
// through CombineUnderLock, still exactly once.
func TestTinyHTMCapacityFallsBackToLock(t *testing.T) {
	const threads = 8
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	pol := defaultPolicy()
	fw := newFW(t, env, Config{
		Policies: []Policy{pol},
		// One readable line: even the smallest transaction (lock word +
		// data word on distinct lines) exceeds capacity.
		HTM: htm.Config{MaxWriteLines: 1, MaxReadLines: 1},
	})
	counter := env.Alloc(1)
	runIncWorkload(t, env, fw, counter, 30, 0)
	m := fw.Metrics()
	if m.HTM.Aborts[htm.ReasonCapacity] == 0 {
		t.Fatal("capacity limit never hit")
	}
	if m.PhaseCompleted[PhaseCombineUnderLock] == 0 {
		t.Fatal("nothing drained through the lock")
	}
}

// TestManyCombinersOneArray runs a configuration in which every thread
// tries to become a combiner for one array simultaneously, in both
// framework variants.
func TestManyCombinersOneArray(t *testing.T) {
	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("hold=%v", hold), func(t *testing.T) {
			const threads = 20
			env := memsim.NewDet(memsim.DetConfig{Threads: threads})
			pol := defaultPolicy()
			pol.TryPrivateTrials = 0
			pol.TryVisibleTrials = 0
			fw := newFW(t, env, Config{Policies: []Policy{pol}, HoldSelectionLock: hold})
			counter := env.Alloc(1)
			runIncWorkload(t, env, fw, counter, 20, 0)
		})
	}
}

// TestMixedClassesOnSharedArray puts two op classes with different
// policies on the SAME publication array: a combiner of either class may
// select and execute operations of the other (ShouldHelp permitting).
func TestMixedClassesOnSharedArray(t *testing.T) {
	const threads = 10
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	polA := defaultPolicy()
	polA.Name, polA.PubArray = "a", 0
	polA.TryPrivateTrials = 0
	polB := defaultPolicy()
	polB.Name, polB.PubArray = "b", 0 // same array, different budgets
	polB.TryVisibleTrials = 0
	fw := newFW(t, env, Config{Policies: []Policy{polA, polB}})
	counter := env.Alloc(1)
	n := env.NumThreads()
	const perThread = 30
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < perThread; i++ {
			fw.Execute(th, incOp{addr: counter, class: (th.ID() + i) % 2})
		}
	})
	if got := env.Boot().Load(counter); got != uint64(n*perThread) {
		t.Fatalf("counter = %d, want %d", got, n*perThread)
	}
}

// TestDynamicBudgetChangesMidRun adjusts budgets concurrently with
// execution (the §2.4 on-the-fly reconfiguration) and checks exactness.
func TestDynamicBudgetChangesMidRun(t *testing.T) {
	const threads, perThread = 8, 60
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < perThread; i++ {
			if th.ID() == 0 {
				// Thrash the budgets through every regime.
				fw.SetTrials(0, i%4, (i+1)%4, 1+i%5)
			}
			fw.Execute(th, incOp{addr: counter})
		}
	})
	if got := env.Boot().Load(counter); got != threads*perThread {
		t.Fatalf("counter = %d", got)
	}
	p, v, c := fw.Trials(0)
	if p < 0 || v < 0 || c < 0 {
		t.Fatal("invalid budgets after thrashing")
	}
}

// TestSetTrialsClampsNegatives pins that SetTrials clamps negative
// budgets to zero.
func TestSetTrialsClampsNegatives(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	fw.SetTrials(0, -3, -1, -2)
	p, v, c := fw.Trials(0)
	if p != 0 || v != 0 || c != 0 {
		t.Fatalf("negatives not clamped: %d %d %d", p, v, c)
	}
}

// TestZeroBudgetClassStillCompletes drives every speculative budget to
// zero, as a tuner may; operations must still complete via the combining
// phases.
func TestZeroBudgetClassStillCompletes(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 4})
	fw := newFW(t, env, Config{Policies: []Policy{{
		Name: "inc", TryPrivateTrials: 4, TryVisibleTrials: 3, TryCombiningTrials: 2,
	}}})
	fw.SetTrials(0, 0, 0, 0)
	counter := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 30; i++ {
			fw.Execute(th, incOp{addr: counter})
		}
	})
	if got := env.Boot().Load(counter); got != 120 {
		t.Fatalf("counter = %d, want 120", got)
	}
	if m := fw.Metrics(); m.PhaseCompleted[PhaseTryPrivate] != 0 {
		t.Fatal("zero private budget still completed privately")
	}
}

// TestRealBackendHighContentionStress runs the full protocol under real
// goroutine concurrency with GOMAXPROCS forced up, for the race detector.
func TestRealBackendHighContentionStress(t *testing.T) {
	const threads, perThread = 10, 80
	env := memsim.NewReal(memsim.RealConfig{Threads: threads})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 1
	pol.TryVisibleTrials = 1
	fw := newFW(t, env, Config{Policies: []Policy{pol}})
	counter := env.Alloc(1)
	results := make([][]uint64, threads)
	env.Run(func(th *memsim.Thread) {
		mine := make([]uint64, 0, perThread)
		for i := 0; i < perThread; i++ {
			mine = append(mine, fw.Execute(th, incOp{addr: counter}))
		}
		results[th.ID()] = mine
	})
	seen := make(map[uint64]bool, threads*perThread)
	for _, r := range results {
		for _, v := range r {
			if seen[v] {
				t.Fatalf("duplicate result %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != threads*perThread {
		t.Fatalf("%d distinct results, want %d", len(seen), threads*perThread)
	}
}

var _ engine.Op = incOp{}

// TestDynamicArrayReassignment thrashes the class->publication-array
// mapping mid-run (§2.4's on-the-fly reconfiguration); exactness must hold
// and in-flight announcements must stay claimable.
func TestDynamicArrayReassignment(t *testing.T) {
	const threads, perThread = 10, 60
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	pol := defaultPolicy()
	pol.TryPrivateTrials = 0 // force announcements
	fw := newFW(t, env, Config{Policies: []Policy{pol}, ExtraArrays: 3})
	if fw.NumArrays() != 4 {
		t.Fatalf("NumArrays = %d, want 4", fw.NumArrays())
	}
	counter := env.Alloc(1)
	results := make([][]uint64, threads)
	env.Run(func(th *memsim.Thread) {
		mine := make([]uint64, 0, perThread)
		for i := 0; i < perThread; i++ {
			if th.ID() == 0 {
				if err := fw.SetPubArray(0, i%fw.NumArrays()); err != nil {
					t.Error(err)
				}
			}
			mine = append(mine, fw.Execute(th, incOp{addr: counter}))
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

func TestSetPubArrayValidation(t *testing.T) {
	env := memsim.NewDet(memsim.DetConfig{Threads: 1})
	fw := newFW(t, env, Config{Policies: []Policy{defaultPolicy()}})
	if err := fw.SetPubArray(0, 5); err == nil {
		t.Error("out-of-range array accepted")
	}
	if err := fw.SetPubArray(3, 0); err == nil {
		t.Error("out-of-range class accepted")
	}
	if err := fw.SetPubArray(0, 0); err != nil {
		t.Error(err)
	}
	if got := fw.PubArrayOf(0); got != 0 {
		t.Errorf("PubArrayOf = %d", got)
	}
	if _, err := New(env, Config{Policies: []Policy{defaultPolicy()}, ExtraArrays: -1}); err == nil {
		t.Error("negative ExtraArrays accepted")
	}
}
