package memsim

import (
	"fmt"
	"reflect"
	"testing"
)

// spinWaits is one way to wait: the deterministic backend's passive
// primitives, or the loops their doc comments say they are observably
// identical to.
type spinWaits struct {
	eq     func(th *Thread, a Addr, want uint64)
	either func(th *Thread, a1 Addr, want1 uint64, a2 Addr, want2 uint64) int
}

var (
	passiveWaits = spinWaits{
		eq:     (*Thread).SpinLoadUntilEq,
		either: (*Thread).SpinUntilEitherEq,
	}
	openCodedWaits = spinWaits{
		eq: func(t *Thread, a Addr, want uint64) {
			for t.Load(a) != want {
				t.Yield()
			}
		},
		either: func(t *Thread, a1 Addr, want1 uint64, a2 Addr, want2 uint64) int {
			for {
				if t.Load(a1) == want1 {
					return 0
				}
				if t.Load(a2) == want2 {
					return 1
				}
				t.Yield()
			}
		},
	}
)

// spinEvent is one logged store, or (addr 0) the result of an
// either-shape wait.
type spinEvent struct {
	thread int
	clock  int64
	addr   Addr
	val    uint64
}

// spinRun is everything a spin-wait workload leaves observable.
type spinRun struct {
	clocks []int64
	stats  []ThreadStats
	log    []spinEvent
}

// runSpinConvoy runs a turn-taking convoy under jitter, waiting by waits.
// Each round, thread i waits for turn == round*n+i, passes the turn on,
// then updates a data word on the turn's line and stores to its own line
// in short steps: the next waiter's predicate holds while the thread that
// released it is still active behind it, and that thread's later stores
// change what the remaining waiters' probes cost. Odd threads wait with
// the either-shape on (stop, turn), so their waits end on the second
// address. After the last round every thread but n-1 waits for done, which
// thread n-1 stores just before it returns, leaving a convoy that is all
// passive once the last active thread finishes.
func runSpinConvoy(n int, waits spinWaits) spinRun {
	const rounds = 3
	cost := DefaultCostParams()
	cost.JitterPct = 30
	e := NewDet(DetConfig{Threads: n, Cost: cost, Seed: 5})
	turn := e.Alloc(WordsPerLine) // turn shares its line with the data words
	stop, done := e.Alloc(1), e.Alloc(1)
	own := e.Alloc(n * WordsPerLine) // one private line per thread
	var log []spinEvent
	store := func(th *Thread, a Addr, v uint64) {
		th.Store(a, v)
		log = append(log, spinEvent{th.ID(), th.Now(), a, v})
	}
	e.Run(func(th *Thread) {
		id := th.ID()
		th.Work(int64(97 * (n - id)))
		for r := 0; r < rounds; r++ {
			mine := uint64(r*n + id)
			if id%2 == 1 {
				which := waits.either(th, stop, 1, turn, mine)
				log = append(log, spinEvent{id, th.Now(), 0, uint64(which)})
			} else {
				waits.eq(th, turn, mine)
			}
			store(th, turn, mine+1)
			slot := turn + 1 + Addr(id%(WordsPerLine-1))
			store(th, slot, th.Load(slot)+mine)
			for k := uint64(0); k < 6; k++ {
				th.Work(int64(20 + 7*(id%5)))
				store(th, own+Addr(id*WordsPerLine), k)
			}
		}
		if id == n-1 {
			store(th, done, 1)
			return
		}
		waits.eq(th, done, 1)
		th.Work(10)
	})
	out := spinRun{log: log}
	for i := 0; i < n; i++ {
		out.clocks = append(out.clocks, e.Now(i))
		out.stats = append(out.stats, *e.Stats(i))
	}
	return out
}

// TestSpinPrimitivesMatchOpenCodedLoops checks the claim in the
// SpinLoadUntilEq and SpinUntilEitherEq doc comments: with the passive
// primitives, every thread ends with the clock and counters it has with
// the open-coded loops, and the active threads store the same values at
// the same virtual times in the same order.
func TestSpinPrimitivesMatchOpenCodedLoops(t *testing.T) {
	for _, n := range []int{2, 9, 36} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			want := runSpinConvoy(n, openCodedWaits)
			got := runSpinConvoy(n, passiveWaits)
			if len(want.log) == 0 {
				t.Fatal("workload logged nothing")
			}
			for i := range want.clocks {
				if got.clocks[i] != want.clocks[i] {
					t.Errorf("thread %d: clock %d, open-coded %d", i, got.clocks[i], want.clocks[i])
				}
				if got.stats[i] != want.stats[i] {
					t.Errorf("thread %d: stats %+v, open-coded %+v", i, got.stats[i], want.stats[i])
				}
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Errorf("store log diverged from the open-coded loops")
			}
		})
	}
}
