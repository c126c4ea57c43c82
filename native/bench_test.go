package native_test

// Wall-clock benchmarks: the native HCF map against the three stdlib
// baselines everyone reaches for first, across goroutine counts and
// read/write mixes, plus the priority queue against a mutex-guarded
// heap. Parallelism ladders use b.SetParallelism so oversubscribed
// points exist even on small boxes; run e.g.
//
//	go test -bench 'Map/' -benchtime 200ms ./native/
//
// The checked-in sweep (bench/BENCH_native.jsonl, produced by
// `hcfbench -fig native -json`) covers the same grid with fixed-duration
// windows; these benchmarks are the interactive/profiling entry point.

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"hcf/native"
)

const (
	benchKeyspace = 1 << 14
	benchPrefill  = benchKeyspace / 2
)

// mapEngine abstracts one map implementation for the benchmark grid.
type mapEngine interface {
	get(k uint64) (uint64, bool)
	put(k, v uint64)
	del(k uint64)
}

type nativeMapEngine struct{ h *native.MapHandle }

func (e nativeMapEngine) get(k uint64) (uint64, bool) { return e.h.Get(k) }
func (e nativeMapEngine) put(k, v uint64)             { e.h.Put(k, v) }
func (e nativeMapEngine) del(k uint64)                { e.h.Delete(k) }

type mutexMapEngine struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (e *mutexMapEngine) get(k uint64) (uint64, bool) {
	e.mu.Lock()
	v, ok := e.m[k]
	e.mu.Unlock()
	return v, ok
}
func (e *mutexMapEngine) put(k, v uint64) { e.mu.Lock(); e.m[k] = v; e.mu.Unlock() }
func (e *mutexMapEngine) del(k uint64)    { e.mu.Lock(); delete(e.m, k); e.mu.Unlock() }

type rwMapEngine struct {
	mu sync.RWMutex
	m  map[uint64]uint64
}

func (e *rwMapEngine) get(k uint64) (uint64, bool) {
	e.mu.RLock()
	v, ok := e.m[k]
	e.mu.RUnlock()
	return v, ok
}
func (e *rwMapEngine) put(k, v uint64) { e.mu.Lock(); e.m[k] = v; e.mu.Unlock() }
func (e *rwMapEngine) del(k uint64)    { e.mu.Lock(); delete(e.m, k); e.mu.Unlock() }

type syncMapEngine struct{ m *sync.Map }

func (e syncMapEngine) get(k uint64) (uint64, bool) {
	v, ok := e.m.Load(k)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}
func (e syncMapEngine) put(k, v uint64) { e.m.Store(k, v) }
func (e syncMapEngine) del(k uint64)    { e.m.Delete(k) }

// runMapMix drives one engine with readPct% gets; writes alternate
// put/delete so the table stays near its prefill size.
func runMapMix(pb *testing.PB, eng mapEngine, seed uint64, readPct int) {
	rng := rand.New(rand.NewPCG(seed, 0xB0B))
	for pb.Next() {
		k := rng.Uint64N(benchKeyspace)
		r := rng.IntN(100)
		switch {
		case r < readPct:
			eng.get(k)
		case r&1 == 0:
			eng.put(k, k+1)
		default:
			eng.del(k)
		}
	}
}

func benchMap(b *testing.B, readPct int, build func(b *testing.B) func() mapEngine) {
	for _, par := range parallelismLadder() {
		b.Run(parName(par), func(b *testing.B) {
			mk := build(b)
			b.SetParallelism(par)
			var seed atomicSeed
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				eng := mk()
				runMapMix(pb, eng, seed.next(), readPct)
				if r, ok := eng.(interface{ release() }); ok {
					r.release()
				}
			})
		})
	}
}

// parallelismLadder yields SetParallelism factors so the goroutine count
// (factor * GOMAXPROCS) walks from GOMAXPROCS up through at least 2x
// oversubscription, hitting >=8 goroutines even on a single-CPU box.
func parallelismLadder() []int {
	p := runtime.GOMAXPROCS(0)
	seen := map[int]bool{}
	var out []int
	for _, g := range []int{1, 2, 4, 8, 16, p, 2 * p} {
		if g < p {
			continue
		}
		f := (g + p - 1) / p
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return out
}

func parName(par int) string {
	return "g" + strconv.Itoa(par*runtime.GOMAXPROCS(0))
}

type atomicSeed struct {
	mu sync.Mutex
	n  uint64
}

func (s *atomicSeed) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}

func (e nativeMapEngine) release() { e.h.Release() }

func newNativeMapBuilder(b *testing.B) func() mapEngine {
	m, err := native.NewMap(2 * benchKeyspace)
	if err != nil {
		b.Fatal(err)
	}
	h := m.Handle()
	for k := uint64(0); k < benchPrefill; k++ {
		h.Put(k*2, k)
	}
	h.Release()
	return func() mapEngine { return nativeMapEngine{h: m.Handle()} }
}

func newMutexMapBuilder(*testing.B) func() mapEngine {
	e := &mutexMapEngine{m: make(map[uint64]uint64, benchKeyspace)}
	for k := uint64(0); k < benchPrefill; k++ {
		e.m[k*2] = k
	}
	return func() mapEngine { return e }
}

func newRWMapBuilder(*testing.B) func() mapEngine {
	e := &rwMapEngine{m: make(map[uint64]uint64, benchKeyspace)}
	for k := uint64(0); k < benchPrefill; k++ {
		e.m[k*2] = k
	}
	return func() mapEngine { return e }
}

func newSyncMapBuilder(*testing.B) func() mapEngine {
	e := syncMapEngine{m: &sync.Map{}}
	for k := uint64(0); k < benchPrefill; k++ {
		e.m.Store(k*2, k)
	}
	return func() mapEngine { return e }
}

func BenchmarkMapHCFNativeRead90(b *testing.B)  { benchMap(b, 90, newNativeMapBuilder) }
func BenchmarkMapMutexRead90(b *testing.B)      { benchMap(b, 90, newMutexMapBuilder) }
func BenchmarkMapRWMutexRead90(b *testing.B)    { benchMap(b, 90, newRWMapBuilder) }
func BenchmarkMapSyncMapRead90(b *testing.B)    { benchMap(b, 90, newSyncMapBuilder) }
func BenchmarkMapHCFNativeMixed50(b *testing.B) { benchMap(b, 50, newNativeMapBuilder) }
func BenchmarkMapMutexMixed50(b *testing.B)     { benchMap(b, 50, newMutexMapBuilder) }
func BenchmarkMapRWMutexMixed50(b *testing.B)   { benchMap(b, 50, newRWMapBuilder) }
func BenchmarkMapSyncMapMixed50(b *testing.B)   { benchMap(b, 50, newSyncMapBuilder) }

// Priority queue: native HCF vs a mutex-guarded plain binary heap.

type plainHeap struct {
	mu sync.Mutex
	h  []uint64
}

func (p *plainHeap) insert(k uint64) {
	p.mu.Lock()
	p.h = append(p.h, k)
	i := len(p.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if p.h[parent] <= p.h[i] {
			break
		}
		p.h[parent], p.h[i] = p.h[i], p.h[parent]
		i = parent
	}
	p.mu.Unlock()
}

func (p *plainHeap) extractMin() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.h) == 0 {
		return 0, false
	}
	min := p.h[0]
	last := len(p.h) - 1
	p.h[0] = p.h[last]
	p.h = p.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(p.h) {
			break
		}
		c := l
		if r < len(p.h) && p.h[r] < p.h[l] {
			c = r
		}
		if p.h[i] <= p.h[c] {
			break
		}
		p.h[i], p.h[c] = p.h[c], p.h[i]
		i = c
	}
	return min, true
}

func BenchmarkPQueueHCFNative(b *testing.B) {
	for _, par := range parallelismLadder() {
		b.Run(parName(par), func(b *testing.B) {
			p, err := native.NewPQueue(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			h := p.Handle()
			for k := uint64(0); k < 4096; k++ {
				h.Insert(k)
			}
			h.Release()
			b.SetParallelism(par)
			var seed atomicSeed
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := p.Handle()
				defer h.Release()
				rng := rand.New(rand.NewPCG(seed.next(), 0xCAFE))
				for pb.Next() {
					if rng.IntN(2) == 0 {
						h.Insert(rng.Uint64N(1 << 20))
					} else {
						h.ExtractMin()
					}
				}
			})
		})
	}
}

func BenchmarkPQueueMutexHeap(b *testing.B) {
	for _, par := range parallelismLadder() {
		b.Run(parName(par), func(b *testing.B) {
			p := &plainHeap{}
			for k := uint64(0); k < 4096; k++ {
				p.insert(k)
			}
			b.SetParallelism(par)
			var seed atomicSeed
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(seed.next(), 0xCAFE))
				for pb.Next() {
					if rng.IntN(2) == 0 {
						p.insert(rng.Uint64N(1 << 20))
					} else {
						p.extractMin()
					}
				}
			})
		})
	}
}
