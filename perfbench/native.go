package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ihash "hcf/internal/native/hashtable"
	"hcf/native"
)

// native-map-rw50: a closed loop of runtime.NumCPU() goroutines on
// native.NewMap(1<<15) over 16384 uniform keys prefilled to half, with
// 50% Get, 25% Put and 25% Delete.
const (
	nativeKeys     = 1 << 14
	nativeCapacity = 1 << 15
	nativeStream   = 1 << 20 // ops per goroutine, replayed cyclically
	keyMask        = nativeKeys - 1
	// sampleEvery is the stride of per-call timing: every 64th call is
	// timed, and becomes a span when traced.
	sampleEvery = 64
)

var (
	classNames = [3]string{"get", "put", "delete"}
	spanNames  = [3]string{"native.get", "native.put", "native.delete"}
)

// nativeInput is everything a run feeds the map, generated from the seed.
type nativeInput struct {
	prefill []uint64
	// streams holds one op stream per goroutine: bits 0-13 the key,
	// bits 14-15 the op (0 and 1 Get, 2 Put, 3 Delete).
	streams [][]uint16
}

func genNative(seed uint64, workers int) nativeInput {
	r := rand.New(rand.NewPCG(seed, 0x6e6174697665))
	perm := r.Perm(nativeKeys)
	in := nativeInput{prefill: make([]uint64, nativeKeys/2)}
	for i := range in.prefill {
		in.prefill[i] = uint64(perm[i])
	}
	for w := 0; w < workers; w++ {
		wr := rand.New(rand.NewPCG(seed, uint64(w)+1))
		s := make([]uint16, nativeStream)
		for i := range s {
			s[i] = uint16(wr.Uint32())
		}
		in.streams = append(in.streams, s)
	}
	return in
}

// opClass maps a stream entry's op bits to 0 get, 1 put, 2 delete.
func opClass(x uint16) int {
	if c := int(x >> 14); c >= 2 {
		return c - 1
	}
	return 0
}

// nativeValue is the only value ever stored under k, so a found Get can
// be checked.
func nativeValue(k uint64) uint64 { return (k*0x9E3779B97F4A7C15)>>2 | 1 }

// mapOps is one goroutine's view of a map under test.
type mapOps interface {
	get(k uint64) (uint64, bool)
	put(k, v uint64) bool // reports whether a value was replaced
	del(k uint64) bool    // reports whether k was present
	release()
}

// mapUnderTest is one rung of the layer ladder.
type mapUnderTest interface {
	handle() mapOps
	length() int
}

type nativeMap struct{ m *native.Map }

func (n nativeMap) handle() mapOps { return nativeHandle{n.m.Handle()} }
func (n nativeMap) length() int    { return n.m.Len() }

type nativeHandle struct{ h *native.MapHandle }

func (h nativeHandle) get(k uint64) (uint64, bool) { return h.h.Get(k) }
func (h nativeHandle) put(k, v uint64) bool {
	_, replaced := h.h.Put(k, v)
	return replaced
}
func (h nativeHandle) del(k uint64) bool { return h.h.Delete(k) }
func (h nativeHandle) release()          { h.h.Release() }

// bareTable is the hash table with no synchronisation: one goroutine only.
type bareTable struct{ t *ihash.Table }

func (b bareTable) handle() mapOps { return b }
func (b bareTable) length() int    { return b.t.Len() }
func (b bareTable) get(k uint64) (uint64, bool) {
	return native.Unpack(b.t.Get(k))
}
func (b bareTable) put(k, v uint64) bool {
	_, replaced := native.Unpack(b.t.Put(k, v))
	return replaced
}
func (b bareTable) del(k uint64) bool { return native.UnpackBool(b.t.Delete(k)) }
func (b bareTable) release()          {}

// rwMap is the reference: a Go map behind a sync.RWMutex.
type rwMap struct {
	mu sync.RWMutex
	m  map[uint64]uint64
}

func (r *rwMap) handle() mapOps { return r }
func (r *rwMap) length() int    { return len(r.m) }
func (r *rwMap) get(k uint64) (uint64, bool) {
	r.mu.RLock()
	v, ok := r.m[k]
	r.mu.RUnlock()
	return v, ok
}
func (r *rwMap) put(k, v uint64) bool {
	r.mu.Lock()
	_, ok := r.m[k]
	r.m[k] = v
	r.mu.Unlock()
	return ok
}
func (r *rwMap) del(k uint64) bool {
	r.mu.Lock()
	_, ok := r.m[k]
	delete(r.m, k)
	r.mu.Unlock()
	return ok
}
func (r *rwMap) release() {}

func prefill(m mapUnderTest, keys []uint64) {
	h := m.handle()
	for _, k := range keys {
		h.put(k, nativeValue(k))
	}
	h.release()
}

// mapWorker is one closed-loop goroutine's state, padded so progress
// counters do not share cache lines.
type mapWorker struct {
	progress atomic.Int64
	ops      int64
	byClass  [3]int64
	inserted int64 // puts that found no previous value
	removed  int64 // deletes that found the key
	wrong    int64 // found Gets with another value than the key's
	lat      [3]hist
	_        [64]byte
}

// mapRun is the outcome of driving one map.
type mapRun struct {
	ops       int64
	byClass   [3]int64
	opsPerSec float64 // median over the run's windows
	lat       [3]hist // sampled call times in ns, by class
	elapsed   time.Duration
}

// driveMap runs a closed loop of len(streams) goroutines on m for dur and
// checks the final size and every Get. Every sampleEvery-th call is
// timed; when tr is non-nil it becomes a span on the goroutine's lane.
func driveMap(b *bench, label string, m mapUnderTest, in nativeInput, streams [][]uint16, dur time.Duration, tr *tracer) mapRun {
	workers := make([]mapWorker, len(streams))
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := range streams {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workers[w].loop(m.handle(), streams[w], &stop, tr.lane(), tr)
		}(w)
	}
	// Sample throughput per window; the median window resists a stall
	// that hits one part of the run.
	const windows = 20
	var rates []float64
	prev, prevT := int64(0), start
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / windows)))
		now, total := time.Now(), int64(0)
		for w := range workers {
			total += workers[w].progress.Load()
		}
		rates = append(rates, float64(total-prev)/now.Sub(prevT).Seconds())
		prev, prevT = total, now
	}
	stop.Store(true)
	wg.Wait()
	run := mapRun{opsPerSec: quantile(rates, 0.5), elapsed: time.Since(start)}
	var inserted, removed, wrong int64
	for w := range workers {
		wk := &workers[w]
		run.ops += wk.ops
		inserted += wk.inserted
		removed += wk.removed
		wrong += wk.wrong
		for c := range run.lat {
			run.byClass[c] += wk.byClass[c]
			run.lat[c].merge(&wk.lat[c])
		}
	}
	want := len(in.prefill) + int(inserted-removed)
	got := m.length()
	b.check(got == want, "%s: final Len %d, want prefill %d + new puts %d - found deletes %d = %d",
		label, got, len(in.prefill), inserted, removed, want)
	b.check(wrong == 0, "%s: %d Gets returned another value than their key's", label, wrong)
	failed := wrong
	if got != want {
		failed++
	}
	b.count(run.ops, failed)
	return run
}

func (wk *mapWorker) loop(h mapOps, stream []uint16, stop *atomic.Bool, l *lane, tr *tracer) {
	defer h.release()
	i, n := 0, int64(0)
	for !stop.Load() {
		for j := 0; j < 256; j++ {
			x := stream[i]
			if i++; i == len(stream) {
				i = 0
			}
			k, c := uint64(x&keyMask), opClass(x)
			sampled := n%sampleEvery == 0
			var t0 time.Time
			if sampled {
				t0 = time.Now()
			}
			switch c {
			case 0:
				if v, ok := h.get(k); ok && v != nativeValue(k) {
					wk.wrong++
				}
			case 1:
				if !h.put(k, nativeValue(k)) {
					wk.inserted++
				}
			default:
				if h.del(k) {
					wk.removed++
				}
			}
			if sampled {
				t1 := time.Now()
				wk.lat[c].add(t1.Sub(t0).Nanoseconds())
				if l != nil {
					l.add(spanNames[c], 0, 0, tr.since(t0), tr.since(t1))
				}
			}
			wk.byClass[c]++
			n++
		}
		wk.progress.Store(n)
	}
	wk.ops = n
}

// setupNative generates the inputs and builds and prefills the map, reps
// times, and returns the last map with the median set-up time.
func setupNative(b *bench, reps int) (*native.Map, nativeInput, float64) {
	var m *native.Map
	var in nativeInput
	s := timed(reps, func() {
		in = genNative(b.seed, runtime.GOMAXPROCS(0))
		var err error
		if m, err = native.NewMap(nativeCapacity); err != nil {
			panic(fmt.Sprintf("native.NewMap: %v", err)) // fixed capacity: a bug
		}
		prefill(nativeMap{m}, in.prefill)
	})
	return m, in, s
}

func runNative(b *bench) {
	m, in, setup := setupNative(b, 25)
	run := driveMap(b, "native-map-rw50", nativeMap{m}, in, in.streams, b.duration(1), nil)
	var all hist
	for c := range run.lat {
		all.merge(&run.lat[c])
		b.put("native."+classNames[c]+"_call_ns_p50", run.lat[c].quantile(0.5), "ns")
	}
	b.put("native.ops_per_s", run.opsPerSec, "1/s")
	b.put("native.timed_calls", float64(all.n), "count")
	b.put("setup_s", setup, "s")
	b.put("throughput_per_s", run.opsPerSec, "1/s")
	// Gets are half the calls and puts and deletes take about twice as
	// long, so the all-call median would sit in the gap between the two
	// modes and jump with the mix; the get median does not.
	b.put("latency_p50_us", run.lat[0].quantile(0.5)/1e3, "us")
	b.put("latency_p99_us", all.quantile(0.99)/1e3, "us")
}

// traceNative is native-map-rw50's part of the traced run, given share
// of the run's time: untraced and traced passes taken in turn, with the
// framework counters read after each traced pass has stopped, then the
// ladder rungs on the same op stream.
func traceNative(b *bench, share time.Duration) {
	const pairs = 3
	pass := share * 3 / 10 / pairs
	var plainRates, tracedRates []float64
	var d native.Metrics
	var byClass [3]int64
	var in nativeInput
	for i := 0; i < pairs; i++ {
		m, in0, _ := setupNative(b, 1)
		in = in0
		plainRates = append(plainRates, driveMap(b, "native-map-rw50 untraced", nativeMap{m}, in, in.streams, pass, nil).opsPerSec)

		m, _, _ = setupNative(b, 1)
		m0 := m.Framework().Metrics()
		traced := driveMap(b, "native-map-rw50 traced", nativeMap{m}, in, in.streams, pass, b.tr)
		delta := metricsDelta(m.Framework().Metrics(), m0)
		d.Merge(&delta)
		for c := range byClass {
			byClass[c] += traced.byClass[c]
		}
		tracedRates = append(tracedRates, traced.opsPerSec)
	}
	plain := quantile(plainRates, 0.5)
	b.put("trace_overhead_frac.native-map-rw50", ratio(plain, quantile(tracedRates, 0.5)), "ratio")
	b.put("native.ops_per_s", plain, "1/s")
	b.put("native.spec_abort_ratio", ratio(float64(d.SpecAborts), float64(d.SpecAttempts)), "ratio")
	b.put("native.spec_read_hit_frac", ratio(float64(d.SpecReadHits), float64(byClass[0])), "frac")
	b.put("native.spec_write_hit_frac", ratio(float64(d.SpecWriteHits), float64(byClass[1]+byClass[2])), "frac")
	b.put("native.announce_frac", ratio(float64(d.Announces), float64(d.Ops)), "frac")
	b.put("native.combining_degree", d.CombiningDegree(), "ops")
	b.put("native.parks_per_kop", 1e3*ratio(float64(d.Parks), float64(d.Ops)), "count")
	for c, name := range classNames {
		b.put("native."+name+"_call_ns_p50", quantile(b.tr.durations(spanNames[c]), 0.5), "ns")
	}

	// The ladder: each rung adds one layer over the same op stream.
	rung := share / 10
	one := in.streams[:1]
	bare := bareTable{ihash.New(nativeCapacity)}
	prefill(bare, in.prefill)
	r := driveMap(b, "hashtable bare", bare, in, one, rung, nil)
	b.put("hashtable.bare_ns_per_op", ratio(float64(r.elapsed.Nanoseconds()), float64(r.ops)), "ns")
	m, _, _ := setupNative(b, 1)
	r = driveMap(b, "native solo", nativeMap{m}, in, one, rung, nil)
	b.put("native.solo_ns_per_op", ratio(float64(r.elapsed.Nanoseconds()), float64(r.ops)), "ns")
	ref := &rwMap{m: make(map[uint64]uint64, nativeKeys)}
	prefill(ref, in.prefill)
	r = driveMap(b, "rwmutex map", ref, in, in.streams, rung, nil)
	b.put("ref.rwmutex_ops_per_s", r.opsPerSec, "1/s")
}

func metricsDelta(a, b native.Metrics) native.Metrics {
	return native.Metrics{
		Ops:              a.Ops - b.Ops,
		SpecAttempts:     a.SpecAttempts - b.SpecAttempts,
		SpecAborts:       a.SpecAborts - b.SpecAborts,
		SpecReadHits:     a.SpecReadHits - b.SpecReadHits,
		SpecWriteHits:    a.SpecWriteHits - b.SpecWriteHits,
		Announces:        a.Announces - b.Announces,
		LockAcquisitions: a.LockAcquisitions - b.LockAcquisitions,
		CombinerSessions: a.CombinerSessions - b.CombinerSessions,
		CombinedOps:      a.CombinedOps - b.CombinedOps,
		Helped:           a.Helped - b.Helped,
		Parks:            a.Parks - b.Parks,
	}
}
