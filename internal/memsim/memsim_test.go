package memsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// envs returns one environment of each backend for conformance testing.
func envs(t *testing.T, threads int) map[string]Env {
	t.Helper()
	return map[string]Env{
		"det":  NewDet(DetConfig{Threads: threads}),
		"real": NewReal(RealConfig{Threads: threads}),
	}
}

func TestAllocReturnsDistinctNonNilSpans(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			seen := map[Addr]bool{}
			for i := 0; i < 1000; i++ {
				a := e.Alloc(4)
				if a == NilAddr {
					t.Fatal("Alloc returned the nil address")
				}
				for w := Addr(0); w < 4; w++ {
					if seen[a+w] {
						t.Fatalf("span starting at %d overlaps a previous span", a)
					}
					seen[a+w] = true
				}
			}
		})
	}
}

func TestAllocSmallSpansDoNotCrossLines(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				words := 1 + i%WordsPerLine
				a := e.Alloc(words)
				first := LineOf(a)
				last := LineOf(a + Addr(words) - 1)
				if first != last {
					t.Fatalf("Alloc(%d) = %d spans lines %d and %d", words, a, first, last)
				}
			}
		})
	}
}

func TestAllocMultiLineSpansAreLineAligned(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			for _, words := range []int{8, 9, 16, 40} {
				a := e.Alloc(words)
				if a%WordsPerLine != 0 {
					t.Fatalf("Alloc(%d) = %d not line aligned", words, a)
				}
			}
		})
	}
}

func TestFreeThenAllocReusesSpan(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			a := e.Alloc(6)
			e.Free(a, 6)
			b := e.Alloc(6)
			if a != b {
				t.Fatalf("expected freed span %d to be reused, got %d", a, b)
			}
		})
	}
}

func TestDirectLoadStoreRoundTrip(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			a := e.Alloc(3)
			th.Store(a, 42)
			th.Store(a+1, ^uint64(0))
			th.Store(a+2, 0)
			if got := th.Load(a); got != 42 {
				t.Errorf("Load(a) = %d, want 42", got)
			}
			if got := th.Load(a + 1); got != ^uint64(0) {
				t.Errorf("Load(a+1) = %d, want max", got)
			}
			if got := th.Load(a + 2); got != 0 {
				t.Errorf("Load(a+2) = %d, want 0", got)
			}
		})
	}
}

func TestCASSemantics(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			a := e.Alloc(1)
			th.Store(a, 5)
			if old, ok := th.CAS(a, 5, 9); !ok || old != 5 {
				t.Fatalf("CAS(5->9) = (%d,%v), want (5,true)", old, ok)
			}
			if old, ok := th.CAS(a, 5, 11); ok || old != 9 {
				t.Fatalf("failing CAS = (%d,%v), want (9,false)", old, ok)
			}
			if got := th.Load(a); got != 9 {
				t.Fatalf("value after failed CAS = %d, want 9", got)
			}
		})
	}
}

func TestAddReturnsPreviousValue(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			a := e.Alloc(1)
			th.Store(a, 10)
			if old := th.Add(a, 3); old != 10 {
				t.Fatalf("Add returned %d, want 10", old)
			}
			if got := th.Load(a); got != 13 {
				t.Fatalf("value after Add = %d, want 13", got)
			}
		})
	}
}

func TestStoreBumpsLineVersion(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			a := e.Alloc(1)
			before := MetaVersion(e.LoadMeta(LineOf(a)))
			th.Store(a, 1)
			after := MetaVersion(e.LoadMeta(LineOf(a)))
			if after <= before {
				t.Fatalf("version did not advance: %d -> %d", before, after)
			}
			if MetaLocked(e.LoadMeta(LineOf(a))) {
				t.Fatal("line left locked after Store")
			}
		})
	}
}

func TestFailedCASDoesNotBumpVersion(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			a := e.Alloc(1)
			th.Store(a, 7)
			before := e.LoadMeta(LineOf(a))
			th.CAS(a, 100, 200)
			if after := e.LoadMeta(LineOf(a)); after != before {
				t.Fatalf("failed CAS changed meta %d -> %d", before, after)
			}
		})
	}
}

func TestClockMonotonic(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			prev := e.ReadClock()
			for i := 0; i < 100; i++ {
				v := e.TickClock()
				if v <= prev {
					t.Fatalf("clock went %d -> %d", prev, v)
				}
				prev = v
			}
		})
	}
}

func TestMetaEncoding(t *testing.T) {
	m := MakeMeta(77)
	if MetaLocked(m) {
		t.Error("fresh meta reports locked")
	}
	if got := MetaVersion(m); got != 77 {
		t.Errorf("MetaVersion = %d, want 77", got)
	}
	if !MetaLocked(m | 1) {
		t.Error("locked bit not detected")
	}
}

func TestQuickLoadStoreAgainstModel(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			base := e.Alloc(64)
			model := make(map[Addr]uint64)
			f := func(off uint8, v uint64, write bool) bool {
				a := base + Addr(off%64)
				if write {
					th.Store(a, v)
					model[a] = v
					return true
				}
				return th.Load(a) == model[a]
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRealEnvConcurrentAdds(t *testing.T) {
	const threads, perThread = 8, 2000
	e := NewReal(RealConfig{Threads: threads})
	a := e.Alloc(1)
	e.Boot().Store(a, 0)
	e.Run(func(th *Thread) {
		for i := 0; i < perThread; i++ {
			th.Add(a, 1)
		}
	})
	if got := e.Boot().Load(a); got != threads*perThread {
		t.Fatalf("sum = %d, want %d", got, threads*perThread)
	}
}

func TestRealEnvConcurrentCASCounter(t *testing.T) {
	const threads, perThread = 6, 500
	e := NewReal(RealConfig{Threads: threads})
	a := e.Alloc(1)
	e.Run(func(th *Thread) {
		for i := 0; i < perThread; i++ {
			for {
				v := th.Load(a)
				if _, ok := th.CAS(a, v, v+1); ok {
					break
				}
				th.Yield()
			}
		}
	})
	if got := e.Boot().Load(a); got != threads*perThread {
		t.Fatalf("sum = %d, want %d", got, threads*perThread)
	}
}

func TestDetEnvConcurrentAdds(t *testing.T) {
	const threads, perThread = 16, 300
	e := NewDet(DetConfig{Threads: threads})
	a := e.Alloc(1)
	e.Run(func(th *Thread) {
		for i := 0; i < perThread; i++ {
			th.Add(a, 1)
		}
	})
	if got := e.Boot().Load(a); got != threads*perThread {
		t.Fatalf("sum = %d, want %d", got, threads*perThread)
	}
}

// detTrace runs a fixed interleaving-sensitive workload and returns a
// fingerprint of the resulting state and clocks.
func detTrace() (uint64, []int64) {
	e := NewDet(DetConfig{Threads: 7})
	a := e.Alloc(8)
	e.Run(func(th *Thread) {
		for i := 0; i < 200; i++ {
			slot := a + Addr((th.ID()+i)%8)
			v := th.Load(slot)
			th.Store(slot, v+uint64(th.ID())+1)
			if i%13 == 0 {
				th.Yield()
			}
		}
	})
	var fp uint64
	for w := Addr(0); w < 8; w++ {
		fp = fp*1000003 + e.Boot().Load(a+w)
	}
	clocks := make([]int64, e.NumThreads())
	for i := range clocks {
		clocks[i] = e.Now(i)
	}
	return fp, clocks
}

func TestDetEnvDeterministic(t *testing.T) {
	fp1, c1 := detTrace()
	fp2, c2 := detTrace()
	if fp1 != fp2 {
		t.Fatalf("state fingerprints differ: %d vs %d", fp1, fp2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("thread %d clock differs: %d vs %d", i, c1[i], c2[i])
		}
	}
}

func TestDetEnvSchedulesByMinimumClock(t *testing.T) {
	e := NewDet(DetConfig{Threads: 2})
	var order []int
	e.Run(func(th *Thread) {
		// Thread 0 does expensive work first; thread 1 should run its
		// accesses before thread 0's follow-up access.
		if th.ID() == 0 {
			th.Work(1_000_000)
		}
		a := e.Alloc(1)
		th.Store(a, 1)
		order = append(order, th.ID())
	})
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("expected thread 1 to finish first, got order %v", order)
	}
}

// TestDetEnvRunPanicsPropagate checks that a body's panic is re-raised
// from Run after the other threads have finished, and that no coroutine
// is left behind.
func TestDetEnvRunPanicsPropagate(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewDet(DetConfig{Threads: 3})
	flag := e.Alloc(1)
	finished := 0
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run panicked with %v, want the body's panic", r)
			}
		}()
		e.Run(func(th *Thread) {
			switch th.ID() {
			case 0:
				th.SpinLoadUntilEq(flag, 1)
			case 1:
				th.Yield()
				panic("boom")
			default:
				th.Work(1000)
				th.Store(flag, 1)
			}
			finished++
		})
	}()
	if finished != 2 {
		t.Errorf("%d threads finished before the panic was re-raised, want 2", finished)
	}
	checkNoGoroutineLeak(t, before)
	e.Run(func(th *Thread) { th.Yield() }) // Run is usable again
}

// TestDetEnvRunGoexitUnwinds checks that a body's runtime.Goexit ends Run's
// goroutine after unwinding every other thread, running their deferred
// calls and leaving no coroutine behind.
func TestDetEnvRunGoexitUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewDet(DetConfig{Threads: 4})
	flag := e.Alloc(1)
	unwound, returned := 0, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(func(th *Thread) {
			defer func() { unwound++ }()
			switch th.ID() {
			case 0:
				th.SpinLoadUntilEq(flag, 1) // never set
			case 1:
				th.Work(500)
				runtime.Goexit()
			case 2:
				for {
					th.Yield()
				}
			default:
				th.Work(1_000_000) // suspended far ahead of the Goexit
			}
		})
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned normally after a body called runtime.Goexit")
	}
	if unwound != 4 {
		t.Errorf("%d threads ran their deferred calls, want 3 unwound plus the one that exited", unwound)
	}
	checkNoGoroutineLeak(t, before)
	e.Run(func(th *Thread) { th.Yield() }) // Run is usable again
}

// checkNoGoroutineLeak fails if more goroutines are running than before.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%d goroutines running, %d before Run: coroutines leaked", runtime.NumGoroutine(), before)
}

func TestDetEnvNowAdvancesWithWork(t *testing.T) {
	e := NewDet(DetConfig{Threads: 1})
	e.Run(func(th *Thread) {
		before := th.Now()
		th.Work(123)
		if th.Now()-before != 123 {
			t.Errorf("Work(123) advanced clock by %d", th.Now()-before)
		}
	})
}

func TestDetEnvSMTPenalty(t *testing.T) {
	cost := DefaultCostParams()
	cost.CoresPerSocket = 2
	cost.SMTPenaltyPct = 100
	// 4 threads on 2 cores: every thread has an active sibling.
	e := NewDet(DetConfig{Threads: 4, Cost: cost})
	e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Work(100)
		}
	})
	if got := e.Now(0); got != 200 {
		t.Fatalf("SMT-inflated work = %d cycles, want 200", got)
	}
}

func TestDetEnvNoSMTPenaltyWithoutSibling(t *testing.T) {
	cost := DefaultCostParams()
	cost.CoresPerSocket = 8
	cost.SMTPenaltyPct = 100
	e := NewDet(DetConfig{Threads: 2, Cost: cost}) // 2 threads, 8 cores
	e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Work(100)
		}
	})
	if got := e.Now(0); got != 100 {
		t.Fatalf("work = %d cycles, want 100 (no sibling)", got)
	}
}

func TestCacheModelHitAfterMiss(t *testing.T) {
	e := NewDet(DetConfig{Threads: 1})
	a := e.Alloc(1)
	e.Run(func(th *Thread) {
		th.Load(a)
		st := th.Stats()
		misses := st.L1Misses
		th.Load(a)
		if st.L1Misses != misses {
			t.Error("second load of same line missed")
		}
		if st.L1Hits == 0 {
			t.Error("expected at least one hit")
		}
	})
}

func TestCacheModelCoherenceInvalidation(t *testing.T) {
	e := NewDet(DetConfig{Threads: 2})
	a := e.Alloc(1)
	turn := make(chan int, 1) // logical phases enforced via clocks below
	_ = turn
	e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Load(a) // warm thread 0's cache
			th.Work(1000)
			// By now thread 1 (cheaper clock) has written the line.
			before := th.Stats().CoherenceMisses
			th.Load(a)
			if th.Stats().CoherenceMisses != before+1 {
				t.Errorf("expected a coherence miss after remote write")
			}
		} else {
			th.Work(10) // run after thread 0's first load
			th.Store(a, 99)
		}
	})
}

func TestCacheModelRemoteMissAcrossSockets(t *testing.T) {
	cost := TwoSocketCostParams()
	cost.CoresPerSocket = 1 // thread 0 -> socket 0, thread 1 -> socket 1
	cost.SMTPenaltyPct = 0
	e := NewDet(DetConfig{Threads: 2, Cost: cost})
	a := e.Alloc(1)
	e.Run(func(th *Thread) {
		if th.ID() == 0 {
			th.Store(a, 5)
			th.Work(1000)
		} else {
			th.Work(100) // let thread 0 write first
			th.Load(a)
			if th.Stats().RemoteMisses == 0 {
				t.Error("expected a remote (cross-socket) miss")
			}
		}
	})
}

func TestL1CacheLRUEviction(t *testing.T) {
	c := newL1Cache(1, 2) // one set, two ways
	c.fill(10, 1)
	c.fill(20, 1)
	if !c.lookup(10, 1) || !c.lookup(20, 1) {
		t.Fatal("both lines should be resident")
	}
	c.lookup(10, 1) // make 10 most recently used
	c.fill(30, 1)   // evicts 20
	if c.lookup(20, 1) {
		t.Error("line 20 should have been evicted")
	}
	if !c.lookup(10, 1) || !c.lookup(30, 1) {
		t.Error("lines 10 and 30 should be resident")
	}
}

func TestL1CacheVersionInvalidation(t *testing.T) {
	c := newL1Cache(4, 2)
	c.fill(5, 3)
	if !c.lookup(5, 3) {
		t.Fatal("expected hit at matching version")
	}
	if c.lookup(5, 4) {
		t.Fatal("expected miss at newer version")
	}
}

func TestCostParamsTopology(t *testing.T) {
	p := TwoSocketCostParams() // 18 cores x 2 sockets
	if got := p.coreOf(0); got != 0 {
		t.Errorf("coreOf(0) = %d", got)
	}
	if got := p.coreOf(36); got != 0 {
		t.Errorf("coreOf(36) = %d, want 0 (SMT sibling)", got)
	}
	if got := p.socketOf(0); got != 0 {
		t.Errorf("socketOf(0) = %d", got)
	}
	if got := p.socketOf(18); got != 1 {
		t.Errorf("socketOf(18) = %d, want 1", got)
	}
	if got := p.socketOf(54); got != 1 {
		t.Errorf("socketOf(54) = %d, want 1", got)
	}
	if !p.smtActive(0, 72) {
		t.Error("thread 0 of 72 should have an active sibling")
	}
	if p.smtActive(0, 36) {
		t.Error("thread 0 of 36 should not have an active sibling")
	}
	if !p.smtActive(40, 41) {
		t.Error("thread 40 is itself a high sibling")
	}
}

func TestThreadStatsMergeAndMissRate(t *testing.T) {
	a := ThreadStats{Loads: 10, L1Hits: 6, L1Misses: 2}
	b := ThreadStats{Loads: 5, L1Hits: 1, L1Misses: 1, CoherenceMisses: 1}
	a.Merge(&b)
	if a.Loads != 15 || a.L1Hits != 7 || a.L1Misses != 3 || a.CoherenceMisses != 1 {
		t.Fatalf("merge result wrong: %+v", a)
	}
	if got := a.MissRate(); got != 0.3 {
		t.Fatalf("MissRate = %v, want 0.3", got)
	}
	var empty ThreadStats
	if empty.MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

func TestResetStats(t *testing.T) {
	e := NewDet(DetConfig{Threads: 1})
	a := e.Alloc(1)
	e.Run(func(th *Thread) {
		th.Store(a, 1)
		th.Work(50)
	})
	e.ResetStats()
	if e.Now(0) != 0 {
		t.Error("clock not reset")
	}
	if s := e.Stats(0); s.Stores != 0 || s.WorkCycles != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

// TestResetStatsDuringRunPanics pins ResetStats' guard: zeroing clocks
// mid-run would leave the scheduler's heap keys stale.
func TestResetStatsDuringRunPanics(t *testing.T) {
	e := NewDet(DetConfig{Threads: 2})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ResetStats") {
			t.Fatalf("Run re-raised %v, want the ResetStats guard's panic", r)
		}
	}()
	e.Run(func(th *Thread) {
		th.Work(10)
		if th.ID() == 1 {
			e.ResetStats()
		}
	})
}

func TestBootThreadUsableBeforeRun(t *testing.T) {
	for name, e := range envs(t, 2) {
		t.Run(name, func(t *testing.T) {
			boot := e.Boot()
			a := e.Alloc(1)
			boot.Store(a, 17)
			e.Run(func(th *Thread) {
				if got := th.Load(a); got != 17 {
					t.Errorf("worker saw %d, want 17", got)
				}
			})
		})
	}
}

func TestDirectOpsAcrossPageBoundary(t *testing.T) {
	for name, e := range envs(t, 1) {
		t.Run(name, func(t *testing.T) {
			th := e.Boot()
			// Allocate enough to cross at least one page boundary.
			var last Addr
			for i := 0; i < 3*pageWords/WordsPerLine; i++ {
				last = e.Alloc(WordsPerLine)
				th.Store(last, uint64(i))
			}
			if got := th.Load(last); got != uint64(3*pageWords/WordsPerLine-1) {
				t.Fatalf("cross-page value = %d", got)
			}
		})
	}
}
