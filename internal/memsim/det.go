package memsim

import (
	"errors"
	"fmt"
	"iter"
	"strings"
)

const (
	pageShift = 14
	pageWords = 1 << pageShift // 64-bit words per arena page
	pageLines = pageWords / WordsPerLine
)

// detPage is one arena page of the deterministic backend. Plain (non-atomic)
// storage is safe because the scheduler runs exactly one virtual thread at a
// time.
type detPage struct {
	words [pageWords]uint64
	metas [pageLines]uint64
	// lastW records the last thread to commit a write to each line
	// (-1 = none); used by the coherence cost model.
	lastW [pageLines]int32
	// watched has one bit per line, set while a parked waiter may watch
	// the line (see DetEnv.park). A stale bit costs one scan of the
	// parked set at the line's next write.
	watched [pageLines / 64]uint64
}

// isWatched reports whether line index li of p has its watched bit set.
func (p *detPage) isWatched(li uint32) bool {
	return p.watched[li/64]&(1<<(li%64)) != 0
}

// setWatched sets or clears line index li's watched bit.
func (p *detPage) setWatched(li uint32, on bool) {
	if on {
		p.watched[li/64] |= 1 << (li % 64)
	} else {
		p.watched[li/64] &^= 1 << (li % 64)
	}
}

func newDetPage() *detPage {
	p := &detPage{}
	for i := range p.lastW {
		p.lastW[i] = -1
	}
	return p
}

// DetConfig configures a deterministic environment.
type DetConfig struct {
	// Threads is the number of simulated worker threads.
	Threads int
	// Cost is the cycle cost model; zero fields take defaults.
	Cost CostParams
	// Seed seeds the per-thread jitter generators (see
	// CostParams.JitterPct). Runs with equal configuration and seed are
	// bit-identical.
	Seed uint64
	// CapacityHint pre-sizes the arena to at least this many words, so long
	// runs do not grow the page table (and the host allocator) incrementally.
	// Zero allocates pages on demand. The hint has no effect on simulated
	// results; pages are identical whether created eagerly or lazily.
	CapacityHint int
	// Explore enables adversarial schedule exploration (see explore.go).
	// The zero value keeps the pure minimum-virtual-time schedule.
	Explore ExploreConfig
}

// DetEnv is the deterministic multicore simulator backend. Virtual threads
// are iter.Pull coroutines that run one at a time under a min-virtual-time
// scheduler; each memory access advances the accessing thread's cycle clock
// by a cost from the coherence model. Runs are fully deterministic for a
// given configuration and workload seed.
//
// Scheduling is run-until-preempted: after charging an access, the current
// thread keeps running as long as it is still the minimum-(clock, id)
// runnable thread (a heap peek, no synchronization). When another thread
// becomes the minimum, the current thread picks it and yields to Run's
// driver loop, which resumes it: two coroutine switches on one OS thread.
// The thread selected at every scheduling point is identical to the
// classic pop-min design, so simulated results are bit-for-bit unchanged;
// only host time is saved.
//
// Threads in a passive spin-wait (SpinLoadUntilEq, SpinUntilEitherEq) are
// stepped inline by the scheduler. A waiter whose predicate is false in
// memory leaves the heap and parks on the lines it watches (see park);
// the running thread catches it up and returns it to the heap just before
// it writes one of those lines (see wake). That too is exact: a waiter's
// step reads only its own clock, cache, jitter state and counters plus
// the watched lines, so the steps the heap would have interleaved with
// other threads can all be taken at the write, in the same order.
type DetEnv struct {
	n    int
	cost CostParams

	pages    []*detPage
	nextFree Addr
	freelist [][]Addr // freelist[words] = LIFO of freed spans of that size
	clock    uint64

	threads []*Thread
	caches  []*l1Cache
	stats   []ThreadStats
	clocks  []int64
	jitter  []uint64 // per-thread splitmix states (0 slice = disabled)

	running bool
	sched   detHeap
	waits   []detWait
	panicV  any

	// parked lists the passive waiters that are out of the heap (see
	// park). cur is the running thread's (key, id) at its last passed
	// scheduling check: parked waiters are caught up to it.
	parked []int32
	cur    detEnt

	// The worker coroutines of the current Run (see Run). handoff is the
	// thread the driver resumes next, set by the thread that yields or
	// retires; -1 ends the run.
	next    []func() (struct{}, bool)
	stop    []func()
	yield   []func(struct{}) bool
	handoff int32

	host HostWork

	// Schedule exploration (see explore.go). Both stay nil with a zero
	// DetConfig.Explore, keeping the scheduler's fast paths untouched.
	exp   *explore
	boost []int64 // per-thread priority offsets added to heap keys
}

// detWait is a worker thread's declarative wait state. While passive, the
// thread's coroutine stays suspended and its spin-loop events (access
// charges, seqlock reads, yield charges) are executed inline, one
// scheduling quantum per step, by whichever coroutine is dispatching or
// writing at that moment. The step stream is bit-identical to the
// open-coded spin loop the primitive replaces; only the host context
// switches are elided.
type detWait struct {
	passive bool
	kind    uint8
	phase   uint8
	which   int
	addr    Addr
	addr2   Addr
	want    uint64
	want2   uint64
}

// Wait kinds.
const (
	waitUntilEq       uint8 = iota // until Load(addr) == want
	waitUntilEitherEq              // until Load(addr)==want or Load(addr2)==want2
)

// HostWork counts the host-side scheduling work of a DetEnv since it was
// created. Like the schedule it is a pure function of the configuration and
// workload, so unlike wall-clock time it does not vary from run to run: a
// scheduler change that adds host work shows up here on every machine.
type HostWork struct {
	// Handoffs counts coroutine resumes by Run's driver: one per thread
	// start and one per switch to a different thread.
	Handoffs uint64
	// HeapSwaps counts element swaps in the scheduler heap's push and
	// sift-down, the cost of choosing the next thread.
	HeapSwaps uint64
	// WaitSteps counts the passive-wait quanta the scheduler stepped
	// inline (stepWait calls), whether at the heap top or in a catch-up.
	WaitSteps uint64
}

// Step phases of a passive wait.
const (
	phAccess1 uint8 = iota // charge the access for addr
	phRead1                // seqlock-read addr, check want
	phAccess2              // charge the access for addr2
	phRead2                // seqlock-read addr2, check want2
)

var _ Env = (*DetEnv)(nil)

// NewDet creates a deterministic environment with cfg.Threads worker threads
// plus a bootstrap thread (id == cfg.Threads) for setup.
func NewDet(cfg DetConfig) *DetEnv {
	if cfg.Threads <= 0 {
		panic(fmt.Sprintf("memsim: invalid thread count %d", cfg.Threads))
	}
	cfg.Cost.normalize()
	e := &DetEnv{
		n:        cfg.Threads,
		cost:     cfg.Cost,
		nextFree: WordsPerLine, // reserve line 0 so Addr 0 stays nil
		freelist: make([][]Addr, 64),
	}
	if cfg.CapacityHint > 0 {
		npages := (cfg.CapacityHint + pageWords - 1) / pageWords
		e.pages = make([]*detPage, 0, npages)
		for i := 0; i < npages; i++ {
			e.pages = append(e.pages, newDetPage())
		}
	}
	total := cfg.Threads + 1 // + bootstrap
	e.threads = make([]*Thread, total)
	e.next = make([]func() (struct{}, bool), cfg.Threads)
	e.stop = make([]func(), cfg.Threads)
	e.yield = make([]func(struct{}) bool, cfg.Threads)
	e.waits = make([]detWait, cfg.Threads)
	e.caches = make([]*l1Cache, total)
	e.stats = make([]ThreadStats, total)
	e.clocks = make([]int64, total)
	for i := 0; i < total; i++ {
		e.threads[i] = NewThread(e, i)
		e.caches[i] = newL1Cache(cfg.Cost.L1Sets, cfg.Cost.L1Ways)
	}
	if cfg.Cost.JitterPct > 0 {
		e.jitter = make([]uint64, total)
		for i := range e.jitter {
			e.jitter[i] = cfg.Seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
		}
	}
	if cfg.Explore.enabled() {
		e.exp = &explore{
			cfg:  cfg.Explore,
			rng:  cfg.Explore.Seed*0xD1342543DE82EF95 + 0x2545F4914F6CDD1D,
			span: cfg.Explore.boostSpan(),
		}
		e.boost = make([]int64, cfg.Threads)
	}
	return e
}

// NumThreads returns the number of worker threads.
func (e *DetEnv) NumThreads() int { return e.n }

// Thread returns worker thread id's handle.
func (e *DetEnv) Thread(id int) *Thread { return e.threads[id] }

// Boot returns the bootstrap thread handle for single-threaded setup.
func (e *DetEnv) Boot() *Thread { return e.threads[e.n] }

// HostWork returns the environment's host-side scheduling counts.
func (e *DetEnv) HostWork() HostWork {
	hw := e.host
	hw.HeapSwaps = e.sched.swaps
	return hw
}

// errUnwind is what a suspended thread panics with when Run stops its
// coroutine early; the coroutine's own deferred recover absorbs it.
var errUnwind = errors.New("memsim: virtual thread unwound")

// Run executes body once per worker thread under the deterministic
// scheduler and returns when every body has returned. It must not be called
// concurrently with itself. A panic in any body is re-raised from Run after
// the remaining threads have finished. If every remaining thread waits in
// SpinLoadUntilEq or SpinUntilEitherEq on memory that no thread is left to
// write, Run panics with a message naming them. A body that calls runtime.Goexit
// (t.FailNow, for example) ends Run's own goroutine: every other thread is
// unwound first, by a panic that runs its deferred calls, and then the
// Goexit reaches Run's caller.
//
// Each worker is an iter.Pull coroutine. Run's driver loop only resumes
// whichever thread the last one handed off to; the scheduling decisions
// are made by the threads themselves at their scheduling points.
func (e *DetEnv) Run(body func(th *Thread)) {
	if e.running {
		panic("memsim: DetEnv.Run called reentrantly")
	}
	e.running = true
	e.panicV = nil
	for i := range e.waits {
		e.waits[i] = detWait{}
	}
	defer e.unwind()
	for i := 0; i < e.n; i++ {
		e.next[i], e.stop[i] = iter.Pull(e.worker(i, body))
	}
	if e.exp != nil {
		e.resetExplore() // draw initial priorities before the heap is built
	}
	e.sched.ents = e.sched.ents[:0]
	for i := 0; i < e.n; i++ {
		e.sched.ents = append(e.sched.ents, detEnt{e.key(i), int32(i)})
	}
	e.sched.heapify()
	for t := e.dispatch(); t >= 0; t = e.handoff {
		e.host.Handoffs++
		e.next[t]()
	}
	if e.panicV != nil {
		panic(e.panicV)
	}
}

// worker returns thread id's coroutine. A retiring thread dispatches the
// next one into handoff (-1 when it was the last), and a body's panic is
// recorded for Run to re-raise. A thread unwound by Run, or one whose body
// called runtime.Goexit, dispatches nothing: Run is leaving early.
func (e *DetEnv) worker(id int, body func(th *Thread)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		e.yield[id] = yield
		returned := false
		defer func() {
			r := recover()
			if r == errUnwind || (r == nil && !returned) {
				return
			}
			if r != nil && e.panicV == nil {
				e.panicV = r
			}
			e.handoff = e.dispatch()
		}()
		body(e.threads[id])
		returned = true
	}
}

// unwind stops every coroutine that has not finished, which happens only
// when Run leaves early by a panic, a Goexit or a deadlock, and ends the
// run. Waiters still parked lose their line marks, so the environment can
// run again.
func (e *DetEnv) unwind() {
	for i, stop := range e.stop {
		stop() // a no-op once the coroutine has finished
		e.next[i], e.stop[i], e.yield[i] = nil, nil, nil
	}
	for _, id := range e.parked {
		e.markWatched(&e.waits[id], false)
	}
	e.parked = e.parked[:0]
	e.running = false
}

// schedPoint preempts the calling virtual thread if it is no longer the
// minimum-(key, id) runnable thread. The common case — still minimum —
// is a heap peek with no synchronization at all, and records the passed
// (key, id) in e.cur; a switch yields to Run's driver, which resumes the
// new minimum thread.
func (e *DetEnv) schedPoint(t int) {
	if !e.running || t >= e.n {
		return
	}
	if e.exp != nil {
		e.explorePoint(t)
	}
	me := detEnt{e.key(t), int32(t)}
	if ents := e.sched.ents; len(ents) == 0 || me.less(ents[0]) {
		e.cur = me // still the minimum: keep running
		return
	}
	e.switchTo(t)
}

// key returns thread t's heap key: its clock plus its exploration boost.
func (e *DetEnv) key(t int) int64 {
	if e.boost != nil {
		return e.clocks[t] + e.boost[t]
	}
	return e.clocks[t]
}

// switchTo re-enters the scheduler from thread t. If the next thread due to
// run is t itself (possible when the threads ahead of it are passive
// waiters whose steps dispatch executes inline), t simply keeps the CPU;
// otherwise t records the next thread in handoff and yields to Run's
// driver, staying suspended until it is scheduled again — or, if t is a
// passive waiter, until its wait completes. A false yield means Run is
// unwinding, and t panics with errUnwind to run its deferred calls.
func (e *DetEnv) switchTo(t int) {
	e.sched.push(detEnt{e.key(t), int32(t)})
	next := e.dispatch()
	if int(next) == t {
		return
	}
	e.handoff = next
	if !e.yield[t](struct{}{}) {
		panic(errUnwind)
	}
}

// dispatch drives the schedule until an active (non-waiting) thread is the
// minimum-(key, id) runnable thread and pops it, executing passive waiters'
// spin-loop steps inline on the calling coroutine along the way. Returns -1
// when no runnable thread remains.
//
// A passive top takes one step. If the step did not complete its wait, the
// waiter is sifted back down when its predicate already holds in memory
// (mayWake: a later step may complete it), and parked otherwise.
func (e *DetEnv) dispatch() int32 {
	h := &e.sched
	for len(h.ents) > 0 {
		top := &h.ents[0]
		t := int(top.id)
		if w := &e.waits[t]; w.passive {
			if !e.stepWait(t, w) {
				if e.mayWake(w) {
					top.key = e.key(t)
					h.siftDown(0)
				} else {
					h.pop()
					e.park(t, w)
				}
				continue
			}
			// The wait completed without a charge, so the thread is still
			// the minimum: schedule it now.
			w.passive = false
		}
		e.cur = *top
		return h.pop()
	}
	if len(e.parked) > 0 {
		e.deadlock()
	}
	return -1
}

// park takes passive waiter t, whose predicate is false in memory, out of
// the heap and marks the lines it watches. Its steps read nothing that
// changes before one of those lines is written, and writes happen only on
// the running thread, whose (key, id) is below every runnable thread's.
// So the steps the heap would have taken one by one, each time t was the
// minimum, can be taken all at once by wake, just before that write.
func (e *DetEnv) park(t int, w *detWait) {
	e.parked = append(e.parked, int32(t))
	e.markWatched(w, true)
}

// markWatched sets or clears the watched bits of the lines w watches.
func (e *DetEnv) markWatched(w *detWait, on bool) {
	e.page(uint32(w.addr)).setWatched(LineOf(w.addr)%pageLines, on)
	if w.kind == waitUntilEitherEq {
		e.page(uint32(w.addr2)).setWatched(LineOf(w.addr2)%pageLines, on)
	}
}

// watches reports whether w reads line.
func (w *detWait) watches(line uint32) bool {
	return LineOf(w.addr) == line || (w.kind == waitUntilEitherEq && LineOf(w.addr2) == line)
}

// wake is called by the running thread just before it changes the word,
// metadata or last writer of a watched line. Every parked waiter on the
// line is caught up to the running thread's passed key and returned to the
// heap, in exactly the state the one-step-per-heap-visit schedule would
// have it in at this write.
func (e *DetEnv) wake(p *detPage, line uint32) {
	p.setWatched(line%pageLines, false)
	kept := e.parked[:0]
	for _, id := range e.parked {
		w := &e.waits[id]
		if !w.watches(line) {
			kept = append(kept, id)
			continue
		}
		e.catchUp(int(id), w)
		e.sched.push(detEnt{e.key(int(id)), id})
	}
	e.parked = kept
}

// catchUp steps parked waiter t for as long as it is below e.cur, as the
// heap would have while the running thread was still ahead of it. No step
// can complete the wait: its predicate is false in memory, and nothing it
// reads has been written since it parked.
func (e *DetEnv) catchUp(t int, w *detWait) {
	for (detEnt{e.key(t), int32(t)}).less(e.cur) {
		e.stepWait(t, w)
	}
}

// deadlock records, for Run to re-raise, that no thread is runnable while
// some are parked: each waits on memory that no thread is left to write.
func (e *DetEnv) deadlock() {
	if e.panicV != nil {
		return // a body's panic is the likelier cause; Run re-raises it
	}
	waits := make([]string, len(e.parked))
	for i, id := range e.parked {
		w := &e.waits[id]
		waits[i] = fmt.Sprintf("thread %d waits for word %d == %d", id, w.addr, w.want)
		if w.kind == waitUntilEitherEq {
			waits[i] += fmt.Sprintf(" or word %d == %d", w.addr2, w.want2)
		}
	}
	e.panicV = "memsim: deadlock: no runnable thread is left to write what the parked threads wait for: " +
		strings.Join(waits, "; ")
}

// mayWake reports whether passive wait w's predicate holds in memory now,
// so that a step of it could complete the wait. It charges nothing.
func (e *DetEnv) mayWake(w *detWait) bool {
	return e.LoadWord(w.addr) == w.want ||
		(w.kind == waitUntilEitherEq && e.LoadWord(w.addr2) == w.want2)
}

// stepWait executes one scheduling quantum of a passive wait on behalf of
// thread t: the events between two scheduling points of the open-coded spin
// loop the wait replaces (one charge, plus the seqlock reads that precede
// it). It reports whether the wait's predicate was satisfied. The event
// stream is bit-identical to Thread.Load/Thread.Yield executing the same
// loop; only the coroutine switches between quanta are elided.
func (e *DetEnv) stepWait(t int, w *detWait) bool {
	e.host.WaitSteps++
	switch w.phase {
	case phAccess1: // Thread.Load(addr) charges its access first
		e.accessBook(t, LineOf(w.addr), false)
		w.phase = phRead1
	case phRead1: // ... then seqlock-reads the word
		line := LineOf(w.addr)
		m1 := e.LoadMeta(line)
		if MetaLocked(m1) {
			e.yieldBook(t)
			return false // retry the read after the yield, as Load does
		}
		v := e.LoadWord(w.addr)
		if e.LoadMeta(line) != m1 {
			e.yieldBook(t)
			return false
		}
		if v == w.want {
			w.which = 0
			return true
		}
		if w.kind == waitUntilEq {
			e.yieldBook(t) // failed round: Yield, then re-access addr
			w.phase = phAccess1
			return false
		}
		// Either-shape: probe addr2 next, with no yield in between — the
		// loop this replaces falls straight through to its second Load.
		w.phase = phAccess2
	case phAccess2:
		e.accessBook(t, LineOf(w.addr2), false)
		w.phase = phRead2
	case phRead2:
		line := LineOf(w.addr2)
		m1 := e.LoadMeta(line)
		if MetaLocked(m1) {
			e.yieldBook(t)
			return false
		}
		v := e.LoadWord(w.addr2)
		if e.LoadMeta(line) != m1 {
			e.yieldBook(t)
			return false
		}
		if v == w.want2 {
			w.which = 1
			return true
		}
		e.yieldBook(t) // both probes failed: Yield, restart at addr
		w.phase = phAccess1
	}
	return false
}

// spinUntilEq parks worker t until a coherent load of a observes want,
// replaying the exact charge/yield stream of
//
//	for th.Load(a) != want { th.Yield() }
//
// The first access is charged here, on the calling coroutine, exactly where
// Thread.Load would charge it — before the scheduler is consulted — so
// equal-clock ties resolve identically.
func (e *DetEnv) spinUntilEq(t int, a Addr, want uint64) {
	e.accessBook(t, LineOf(a), false)
	e.waits[t] = detWait{passive: true, kind: waitUntilEq, phase: phRead1, addr: a, want: want}
	e.switchTo(t)
}

// spinUntilEitherEq parks worker t until a load of a1 observes want1
// (returns 0) or, probed second within each round, a load of a2 observes
// want2 (returns 1).
func (e *DetEnv) spinUntilEitherEq(t int, a1 Addr, want1 uint64, a2 Addr, want2 uint64) int {
	e.accessBook(t, LineOf(a1), false)
	e.waits[t] = detWait{
		passive: true, kind: waitUntilEitherEq, phase: phRead1,
		addr: a1, want: want1, addr2: a2, want2: want2,
	}
	e.switchTo(t)
	return e.waits[t].which
}

// page returns the arena page holding word index w, growing the arena as
// needed.
func (e *DetEnv) page(w uint32) *detPage {
	idx := int(w >> pageShift)
	for idx >= len(e.pages) {
		e.pages = append(e.pages, newDetPage())
	}
	return e.pages[idx]
}

// Alloc allocates a span of words.
func (e *DetEnv) Alloc(words int) Addr {
	if words <= 0 {
		panic("memsim: Alloc of non-positive span")
	}
	if words < len(e.freelist) {
		if fl := e.freelist[words]; len(fl) > 0 {
			a := fl[len(fl)-1]
			e.freelist[words] = fl[:len(fl)-1]
			return a
		}
	}
	// Keep spans within a line when they fit, and line-aligned when they
	// span lines, so capacity accounting and false sharing behave like a
	// real allocator with size classes.
	a := e.nextFree
	if words >= WordsPerLine || int(a%WordsPerLine)+words > WordsPerLine {
		if r := a % WordsPerLine; r != 0 {
			a += WordsPerLine - r
		}
	}
	e.nextFree = a + Addr(words)
	e.page(uint32(e.nextFree)) // ensure backing exists
	return a
}

// Free returns a span to the allocator.
func (e *DetEnv) Free(a Addr, words int) {
	for words >= len(e.freelist) {
		e.freelist = append(e.freelist, make([][]Addr, len(e.freelist))...)
	}
	e.freelist[words] = append(e.freelist[words], a)
}

// LoadMeta returns the metadata word of a line.
func (e *DetEnv) LoadMeta(line uint32) uint64 {
	return e.page(line << LineShift).metas[line%pageLines]
}

// CASMeta compares-and-swaps a line's metadata word.
func (e *DetEnv) CASMeta(line uint32, old, new uint64) bool {
	p := e.page(line << LineShift)
	i := line % pageLines
	if p.metas[i] != old {
		return false
	}
	if p.isWatched(i) {
		e.wake(p, line)
	}
	p.metas[i] = new
	return true
}

// StoreMeta stores a line's metadata word on behalf of thread t. Releasing a
// line with a new version also refreshes t's cached copy and records t as
// the line's last writer for the coherence model.
func (e *DetEnv) StoreMeta(t int, line uint32, m uint64) {
	p := e.page(line << LineShift)
	if p.isWatched(line % pageLines) {
		e.wake(p, line)
	}
	p.metas[line%pageLines] = m
	if !MetaLocked(m) && t >= 0 && t < len(e.caches) {
		p.lastW[line%pageLines] = int32(t)
		e.caches[t].fill(line, MetaVersion(m))
	}
}

// LoadWord reads a word without cost accounting.
func (e *DetEnv) LoadWord(a Addr) uint64 {
	return e.page(uint32(a)).words[uint32(a)%pageWords]
}

// StoreWord writes a word without cost accounting.
func (e *DetEnv) StoreWord(a Addr, v uint64) {
	p := e.page(uint32(a))
	if p.isWatched(LineOf(a) % pageLines) {
		e.wake(p, LineOf(a))
	}
	p.words[uint32(a)%pageWords] = v
}

// LastWriter returns the last thread to commit a write to line, or -1.
func (e *DetEnv) LastWriter(line uint32) int {
	return int(e.page(line << LineShift).lastW[line%pageLines])
}

// ReadClock returns the global version clock.
func (e *DetEnv) ReadClock() uint64 { return e.clock }

// TickClock increments and returns the global version clock.
func (e *DetEnv) TickClock() uint64 {
	e.clock++
	return e.clock
}

// Access charges thread t for one logical access to line and yields to the
// scheduler.
func (e *DetEnv) Access(t int, line uint32, write bool) {
	e.accessBook(t, line, write)
	e.schedPoint(t)
}

// accessBook performs the bookkeeping and cycle charge of Access without the
// scheduling point; the passive-wait step executor uses it directly.
func (e *DetEnv) accessBook(t int, line uint32, write bool) {
	st := &e.stats[t]
	if write {
		st.Stores++
	} else {
		st.Loads++
	}
	p := e.page(line << LineShift)
	li := line % pageLines
	ver := MetaVersion(p.metas[li])
	var cost int64
	if e.caches[t].lookup(line, ver) {
		cost = e.cost.L1Hit
		st.L1Hits++
	} else {
		cost = e.cost.L1Miss
		st.L1Misses++
		if lw := p.lastW[li]; lw >= 0 && int(lw) != t && int(lw) < e.n+1 {
			cost = e.cost.CoherenceMiss
			st.CoherenceMisses++
			if e.cost.socketOf(int(lw)) != e.cost.socketOf(t) {
				cost += e.cost.NUMAPenalty
				st.RemoteMisses++
			}
		}
		e.caches[t].fill(line, ver)
	}
	if write {
		if p.isWatched(li) {
			e.wake(p, line)
		}
		p.lastW[li] = int32(t)
	}
	e.charge(t, cost)
}

// charge adds cost cycles (with SMT inflation and optional schedule-fuzzing
// jitter) to thread t's clock.
func (e *DetEnv) charge(t int, cost int64) {
	if t < e.n && e.cost.SMTPenaltyPct > 0 && e.cost.smtActive(t, e.n) {
		cost += cost * e.cost.SMTPenaltyPct / 100
	}
	if e.jitter != nil && cost > 0 {
		// splitmix64 step, deterministic per thread.
		e.jitter[t] += 0x9E3779B97F4A7C15
		z := e.jitter[t]
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		span := 2*e.cost.JitterPct + 1
		pct := int64(z%uint64(span)) - e.cost.JitterPct // in [-J, +J]
		cost += cost * pct / 100
		if cost < 1 {
			cost = 1
		}
	}
	e.clocks[t] += cost
}

// Work charges c cycles of local computation to thread t. It is a
// scheduling point so that effects across threads always execute in virtual
// time order.
func (e *DetEnv) Work(t int, c int64) {
	e.stats[t].WorkCycles += c
	e.charge(t, c)
	e.schedPoint(t)
}

// IdleUntil advances thread t's clock to deadline without charging
// execution costs: idle cycles model a thread waiting for external work
// (an open-loop arrival), so the SMT penalty and jitter — which model
// contended execution — do not apply. It is a scheduling point, so other
// threads' effects in the skipped span execute first, in virtual-time
// order.
func (e *DetEnv) IdleUntil(t int, deadline int64) {
	if deadline > e.clocks[t] {
		e.stats[t].IdleCycles += deadline - e.clocks[t]
		e.clocks[t] = deadline
	}
	e.schedPoint(t)
}

// Yield charges the yield cost and reschedules.
func (e *DetEnv) Yield(t int) {
	e.yieldBook(t)
	e.schedPoint(t)
}

// yieldBook is Yield's bookkeeping and charge without the scheduling point.
func (e *DetEnv) yieldBook(t int) {
	e.stats[t].Yields++
	e.charge(t, e.cost.YieldCost)
}

// Now returns thread t's virtual cycle clock.
func (e *DetEnv) Now(t int) int64 { return e.clocks[t] }

// Stats returns thread t's counters.
func (e *DetEnv) Stats(t int) *ThreadStats { return &e.stats[t] }

// ResetStats zeroes all per-thread counters and clocks (e.g. after a warmup
// phase); caches are also emptied. It must be called between runs: during
// Run it would leave the scheduler's heap keys stale, so it panics.
func (e *DetEnv) ResetStats() {
	if e.running {
		panic("memsim: DetEnv.ResetStats called during Run")
	}
	for i := range e.stats {
		e.stats[i].Reset()
		e.clocks[i] = 0
		e.caches[i].reset()
	}
}

// Cost returns the environment's cost parameters.
func (e *DetEnv) Cost() CostParams { return e.cost }

// detHeap is a binary min-heap of runnable threads ordered by (key, id),
// where key is the thread's virtual clock plus its exploration boost.
// Parked waiters are not in it. Keys are stored inline: they change only
// for the running thread and for parked waiters, neither of which is in
// the heap, and for a passive waiter dispatch steps at the top, which
// rewrites ents[0].key before sifting it down. The heap is hand-rolled
// (rather than container/heap) so the per-access peek/push/pop path has no
// interface conversions and no allocations. The (key, id) order is a strict
// total order, so the popped minimum is unique and the schedule does not
// depend on internal layout.
type detHeap struct {
	ents  []detEnt
	swaps uint64 // element swaps by push and siftDown (HostWork.HeapSwaps)
}

// detEnt is one runnable thread in the scheduler heap.
type detEnt struct {
	key int64
	id  int32
}

func (a detEnt) less(b detEnt) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

// heapify restores heap order over ents.
func (h *detHeap) heapify() {
	for i := len(h.ents)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *detHeap) push(x detEnt) {
	h.ents = append(h.ents, x)
	ents := h.ents
	i := len(ents) - 1
	var swaps uint64
	for i > 0 {
		parent := (i - 1) / 2
		if !ents[i].less(ents[parent]) {
			break
		}
		ents[i], ents[parent] = ents[parent], ents[i]
		i = parent
		swaps++
	}
	h.swaps += swaps
}

// pop removes the minimum entry and returns its thread id.
func (h *detHeap) pop() int32 {
	ents := h.ents
	top := ents[0].id
	last := len(ents) - 1
	ents[0] = ents[last]
	h.ents = ents[:last]
	h.siftDown(0)
	return top
}

func (h *detHeap) siftDown(i int) {
	ents := h.ents
	n := len(ents)
	var swaps uint64
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && ents[r].less(ents[l]) {
			min = r
		}
		if !ents[min].less(ents[i]) {
			break
		}
		ents[i], ents[min] = ents[min], ents[i]
		i = min
		swaps++
	}
	h.swaps += swaps
}
