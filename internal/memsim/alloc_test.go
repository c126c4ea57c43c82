package memsim

import "testing"

// TestAccessFastPathZeroAllocs asserts that the deterministic backend's
// charged access path (coherent loads and stores, including the cost model
// and L1 simulation) performs no heap allocations once the touched arena
// pages exist.
func TestAccessFastPathZeroAllocs(t *testing.T) {
	env := NewDet(DetConfig{Threads: 1})
	th := env.Boot()
	a := env.Alloc(WordsPerLine)
	b := env.Alloc(WordsPerLine)
	env.StoreWord(a, 0)
	env.StoreWord(b, 0)

	body := func() {
		th.Store(a, th.Load(a)+1)
		th.Store(b, th.Load(b)+1)
		th.Work(10)
		th.Yield()
	}
	body() // warm up page table and caches
	if avg := testing.AllocsPerRun(100, body); avg != 0 {
		t.Errorf("access fast path allocates %.1f objects per run, want 0", avg)
	}
}

// TestRunSteadyStateAllocs checks that the scheduler itself (heap,
// handoffs, passive waits) allocates nothing per scheduling point: a Run
// allocates exactly as much at 50 handoffs as at 5,000, at 2 and at 36
// threads. Only the per-thread coroutine set-up at the start of Run may
// allocate, and it stays within a small constant per thread.
func TestRunSteadyStateAllocs(t *testing.T) {
	// pingPong makes threads 0 and 1 hand a flag back and forth rounds
	// times while every other thread spin-waits for the final value, so
	// handoffs, heap swaps and passive-wait steps all grow with rounds.
	pingPong := func(threads, rounds int) (float64, HostWork) {
		env := NewDet(DetConfig{Threads: threads})
		flag := env.Alloc(1)
		body := func(th *Thread) {
			if id := th.ID(); id < 2 {
				for i := id; i < 2*rounds; i += 2 {
					th.SpinLoadUntilEq(flag, uint64(i))
					th.Store(flag, uint64(i+1))
				}
			} else {
				th.SpinLoadUntilEq(flag, uint64(2*rounds))
			}
		}
		env.Run(body) // warm up; the env's first Run, so HostWork is its own
		hw := env.HostWork()
		avg := testing.AllocsPerRun(20, func() {
			env.ResetStats()
			env.StoreWord(flag, 0)
			env.Run(body)
		})
		return avg, hw
	}
	const perThread = 13 // iter.Pull's coroutine plus the worker closure
	for _, threads := range []int{2, 36} {
		small, _ := pingPong(threads, 25)
		large, hw := pingPong(threads, 2500)
		if hw.Handoffs < 5000 || hw.WaitSteps < 5000 {
			t.Fatalf("%d threads: the large run made %d handoffs and %d wait steps, want at least 5000 of each", threads, hw.Handoffs, hw.WaitSteps)
		}
		t.Logf("%d threads: %.0f objects per Run, %d handoffs in the large run", threads, small, hw.Handoffs)
		if small != large {
			t.Errorf("%d threads: Run allocates %.1f objects at 50 handoffs and %.1f at 5000, want equal", threads, small, large)
		}
		if small > perThread*float64(threads) {
			t.Errorf("%d threads: Run allocates %.1f objects, want at most %d per thread", threads, small, perThread)
		}
	}
}
