package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"hcf/internal/harness"
	"hcf/internal/kvstore"
)

// kv-zipf-openloop: an open loop of runtime.NumCPU() workers, one Poisson
// schedule each, on a store with the default kvstore.Config (4 shards,
// fsync on every group commit). Every one of the 64K keys is prefilled,
// keys are Zipf(0.9), values 128 B, and the mix is 50% get, 25% put,
// 25% delete. One fixed offered rate is the "loaded" point; a ladder of
// rates finds the highest one the store sustains.
const (
	kvKeys     = 1 << 16
	kvValueLen = 128
	kvTheta    = 0.9
	// kvLoadedRate is the loaded point's offered rate in requests/s.
	kvLoadedRate = 1000.0
	// kvMinCompletion is the share of offered requests a ladder rung must
	// complete to pass.
	kvMinCompletion = 0.99
	// kvWindows is the number of windows a phase's p99 is the median of.
	kvWindows = 12
)

// kvLadder is the offered-rate ladder in requests/s.
var kvLadder = []float64{2000, 4000, 6000, 8000}

// kvValue fills buf with key's value: the key, then bytes derived from it.
func kvValue(buf []byte, key uint64) {
	binary.LittleEndian.PutUint64(buf, key)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(key*131 + uint64(i))
	}
}

// kvValueOK reports whether v decodes to key.
func kvValueOK(v []byte, key uint64) bool {
	if len(v) != kvValueLen || binary.LittleEndian.Uint64(v) != key {
		return false
	}
	for i := 8; i < len(v); i++ {
		if v[i] != byte(key*131+uint64(i)) {
			return false
		}
	}
	return true
}

// kvRig is an open store with one handle and one value buffer per worker.
type kvRig struct {
	store   *kvstore.Store
	dir     string
	handles []*kvstore.Handle
	vals    [][]byte
	z       *zipf
}

// setupKV prefills a fresh store and re-opens it with the default
// config, reps times, and returns the last store with the median time.
func setupKV(b *bench, reps int) (*kvRig, float64, error) {
	var rig *kvRig
	var err error
	s := timed(reps, func() {
		if rig != nil {
			rig.close()
			os.RemoveAll(rig.dir)
		}
		rig, err = newKVRig(b)
	})
	return rig, s, err
}

// newKVRig writes every key once with fsync off, which only lays down
// the log, and opens the store over it with the default config.
func newKVRig(b *bench) (*kvRig, error) {
	dir, err := os.MkdirTemp(b.dir, "kv-")
	if err != nil {
		return nil, err
	}
	fill, err := kvstore.Open(dir, kvstore.Config{DisableSync: true})
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := fill.Handle()
			if err != nil {
				errs[w] = err
				return
			}
			defer h.Release()
			val := make([]byte, kvValueLen)
			for k := uint64(w); k < kvKeys; k += uint64(workers) {
				kvValue(val, k)
				if _, err := h.Put(k, val); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := fill.Close(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rig := &kvRig{dir: dir, z: newZipf(kvKeys, kvTheta)}
	return rig, rig.open(workers)
}

func (k *kvRig) open(workers int) error {
	s, err := kvstore.Open(k.dir, kvstore.Config{})
	if err != nil {
		return err
	}
	k.store, k.handles, k.vals = s, nil, nil
	for w := 0; w < workers; w++ {
		h, err := s.Handle()
		if err != nil {
			return err
		}
		k.handles = append(k.handles, h)
		k.vals = append(k.vals, make([]byte, kvValueLen))
	}
	return nil
}

func (k *kvRig) close() error {
	if k.store == nil {
		return nil
	}
	for _, h := range k.handles {
		h.Release()
	}
	err := k.store.Close()
	k.store = nil
	return err
}

// serve runs one request on worker w's handle and checks a found value.
func (k *kvRig) serve(w int, rq request) bool {
	h := k.handles[w]
	switch rq.class {
	case 0:
		v, ok, err := h.Get(rq.key)
		if err != nil || (ok && !kvValueOK(v, rq.key)) {
			return false
		}
	case 1:
		kvValue(k.vals[w], rq.key)
		if _, err := h.Put(rq.key, k.vals[w]); err != nil {
			return false
		}
	default:
		if _, err := h.Delete(rq.key); err != nil {
			return false
		}
	}
	return true
}

const (
	getsOnly = iota
	writesOnly
	allOps
)

// kvPhase is one offered rate held for a while, with every request's
// times split into distributions.
type kvPhase struct {
	rate       float64
	offered    int
	served     int
	completion float64 // served / offered
	puts, dels int64

	// sojourn is due-to-end time in ns of gets, writes (puts and
	// deletes) and all requests, over the phase and per window of due
	// times.
	sojourn [3]hist
	windows [][3]hist
	// getCall is start-to-end time of the store's Get calls.
	getCall hist
	// wakeLate is start-due of requests whose worker was asleep when they
	// fell due; queued is start-due of those whose worker was busy.
	wakeLate, queued hist
}

// p50 is the phase's median sojourn of class c in µs.
func (p *kvPhase) p50(c int) float64 { return p.sojourn[c].quantile(0.5) / 1e3 }

// p99 is the median over the phase's windows of each window's p99 in µs:
// one stall of the shared disk moves one window, not the result.
func (p *kvPhase) p99(c int) float64 {
	var qs []float64
	for i := range p.windows {
		if p.windows[i][c].n > 0 {
			qs = append(qs, p.windows[i][c].quantile(0.99)/1e3)
		}
	}
	return quantile(qs, 0.5)
}

// phase offers rate for dur; stream separates the phases' schedules.
func (k *kvRig) phase(b *bench, rate float64, dur time.Duration, stream uint64, tr *tracer) *kvPhase {
	scheds := schedules(b.seed, stream, k.z, len(k.handles), rate, dur)
	out, failed := openLoop(scheds, dur+100*time.Millisecond, tr, k.serve)
	window := dur / kvWindows
	p := &kvPhase{rate: rate, windows: make([][3]hist, kvWindows+1)}
	for w := range scheds {
		p.offered += len(scheds[w])
		p.served += len(out[w])
		for _, s := range out[w] {
			c := getsOnly
			switch s.class {
			case 1:
				c = writesOnly
				p.puts++
			case 2:
				c = writesOnly
				p.dels++
			}
			win := &p.windows[s.due/int64(window)]
			for _, h := range []*hist{&p.sojourn[c], &p.sojourn[allOps], &win[c], &win[allOps]} {
				h.add(s.end - s.due)
			}
			if c == getsOnly {
				p.getCall.add(s.end - s.start)
			}
			if s.slept {
				p.wakeLate.add(s.start - s.due)
			} else {
				p.queued.add(s.start - s.due)
			}
		}
	}
	p.completion = ratio(float64(p.served), float64(p.offered))
	b.check(failed == 0, "kv at %.0f/s: %d requests failed or read a value that is not their key's", rate, failed)
	b.count(int64(p.served), failed)
	return p
}

// saturate runs the workers closed-loop on the same mix for dur and
// returns the median over windows of the completed requests per second:
// the store's capacity with one request in flight per worker.
func (k *kvRig) saturate(b *bench, dur time.Duration, stream uint64) float64 {
	reqs := make([][]request, len(k.handles))
	for w := range reqs {
		r := rand.New(rand.NewPCG(b.seed, stream<<16|uint64(w)))
		for i := 0; i < 1<<15; i++ {
			reqs[w] = append(reqs[w], draw(r, k.z))
		}
	}
	done, failed := closedLoop(reqs, dur, 2*kvWindows, k.serve)
	rates := make([]float64, len(done))
	var total int64
	for i, n := range done {
		rates[i] = float64(n) / (dur.Seconds() / float64(len(done)))
		total += n
	}
	b.check(failed == 0, "kv closed loop: %d requests failed or read a value that is not their key's", failed)
	b.count(total, failed)
	return quantile(rates, 0.5)
}

// putLoadgen records the generator's own accuracy: how late a sleeping
// worker woke for a due request, and how long a due request waited for
// its busy worker.
func (b *bench) putLoadgen(p *kvPhase) {
	b.put("loadgen.wake_late_us_p50", p.wakeLate.quantile(0.5)/1e3, "us")
	b.put("loadgen.wake_late_us_p99", p.wakeLate.quantile(0.99)/1e3, "us")
	b.put("loadgen.queue_us_p99", p.queued.quantile(0.99)/1e3, "us")
}

// maxOKRate interpolates the highest offered rate that completes
// kvMinCompletion of its requests with write p99 within limit (µs),
// between the last passing rung and the first failing one. The rungs'
// p99s are first made non-decreasing in the offered rate (isotonic
// regression), so one noisy rung does not end the ladder early. It
// returns the top rate when every rung passes.
func maxOKRate(rungs []*kvPhase, limitUS float64) float64 {
	p99s := make([]float64, len(rungs))
	for i, r := range rungs {
		p99s[i] = r.p99(writesOnly)
	}
	p99s = isotonic(p99s)
	prevRate, prevC, prevP99 := 0.0, 1.0, 0.0
	for i, r := range rungs {
		c, p99 := r.completion, p99s[i]
		if c >= kvMinCompletion && p99 <= limitUS {
			prevRate, prevC, prevP99 = r.rate, c, p99
			continue
		}
		x := math.Inf(1)
		if p99 > limitUS {
			x = prevRate + (r.rate-prevRate)*(limitUS-prevP99)/(p99-prevP99)
		}
		if c < kvMinCompletion {
			x = math.Min(x, prevRate+(r.rate-prevRate)*(prevC-kvMinCompletion)/(prevC-c))
		}
		return x
	}
	return prevRate
}

// isotonic returns the least-squares non-decreasing fit to ys (pool
// adjacent violators).
func isotonic(ys []float64) []float64 {
	type block struct{ sum, n float64 }
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for len(bs) > 1 && bs[len(bs)-2].sum/bs[len(bs)-2].n > bs[len(bs)-1].sum/bs[len(bs)-1].n {
			last := bs[len(bs)-1]
			bs = bs[:len(bs)-1]
			bs[len(bs)-1].sum += last.sum
			bs[len(bs)-1].n += last.n
		}
	}
	var out []float64
	for _, bl := range bs {
		for i := 0.0; i < bl.n; i++ {
			out = append(out, bl.sum/bl.n)
		}
	}
	return out
}

// recover closes the store, re-opens it reps times and checks that every
// re-opened index is byte-identical to the one before the first Close.
// It returns the median re-open time in seconds.
func (k *kvRig) recover(b *bench, reps int) float64 {
	before := k.store.IndexDump()
	var ts []float64
	for i := 0; i < reps; i++ {
		if !b.check(k.close() == nil, "kv: Close failed") {
			b.count(0, 1)
			return 0
		}
		t0 := time.Now()
		err := k.open(len(k.vals))
		ts = append(ts, time.Since(t0).Seconds())
		if !b.check(err == nil, "kv: re-Open failed: %v", err) {
			b.count(0, 1)
			return 0
		}
		if !b.check(bytes.Equal(before, k.store.IndexDump()), "kv: the index after re-Open differs from the one before Close") {
			b.count(0, 1)
		}
	}
	return quantile(ts, 0.5)
}

// writeP99Limit is the existing KV SLO's all-request limit in µs.
func writeP99Limit() float64 {
	return float64(harness.DefaultKVSLO().Objectives[0].Threshold) / 1e3
}

func runKV(b *bench) {
	rig, setup, err := setupKV(b, 3)
	if !b.check(err == nil, "kv set-up: %v", err) {
		b.count(0, 1)
		return
	}
	defer os.RemoveAll(rig.dir)
	defer rig.close()
	loaded := rig.phase(b, kvLoadedRate, b.duration(0.45), 1, nil)
	saturated := rig.saturate(b, b.duration(0.2), 99)
	var rungs []*kvPhase
	limit := writeP99Limit()
	rung := b.duration(0.3) / time.Duration(len(kvLadder))
	for i, rate := range kvLadder {
		r := rig.phase(b, rate, rung, uint64(i+2), nil)
		rungs = append(rungs, r)
		fmt.Printf("  ladder %6.0f/s: completion %.4f, write p99 %.0f us, get p99 %.0f us\n", rate, r.completion, r.p99(writesOnly), r.p99(getsOnly))
	}
	maxOK := maxOKRate(rungs, limit)
	recoverS := rig.recover(b, 3)

	b.putLoadgen(loaded)
	b.put("kvstore.get_call_us_p50", loaded.getCall.quantile(0.5)/1e3, "us")
	b.put("kv.loaded_requests", float64(loaded.served), "count")
	b.put("kv.get_p50_us", loaded.p50(getsOnly), "us")
	b.put("kv.get_p99_us", loaded.p99(getsOnly), "us")
	b.put("kv.write_p50_us", loaded.p50(writesOnly), "us")
	b.put("kv.write_p99_us", loaded.p99(writesOnly), "us")
	b.put("kv.max_ok_rate", maxOK, "1/s")
	b.put("kv.saturated_ops_per_s", saturated, "1/s")
	b.put("kv.recover_s", recoverS, "s")
	b.put("setup_s", setup, "s")
	b.put("throughput_per_s", saturated, "1/s")
	b.put("latency_p50_us", loaded.p50(getsOnly), "us")
	b.put("latency_p99_us", loaded.p99(allOps), "us")
}

// traceKV is kv-zipf-openloop's part of the traced run: the loaded rate
// once untraced and once traced, with the store's counters read around
// the traced phase.
func traceKV(b *bench, share time.Duration) {
	rig, _, err := setupKV(b, 1)
	if !b.check(err == nil, "kv set-up: %v", err) {
		b.count(0, 1)
		return
	}
	defer os.RemoveAll(rig.dir)
	defer rig.close()
	plain := rig.phase(b, kvLoadedRate, share/2, 1, nil)
	s0 := rig.store.Stats()
	traced := rig.phase(b, kvLoadedRate, share/2, 1, b.tr)
	s1 := rig.store.Stats()

	b.put("trace_overhead_frac.kv-zipf-openloop", ratio(traced.p50(getsOnly), plain.p50(getsOnly)), "ratio")
	b.putLoadgen(traced)
	for _, c := range []struct {
		name  string
		spans []string
	}{{"get", []string{"kvstore.get"}}, {"write", []string{"kvstore.put", "kvstore.delete"}}} {
		var ds []float64
		for _, s := range c.spans {
			ds = append(ds, b.tr.durations(s)...)
		}
		b.put("kvstore."+c.name+"_call_us_p50", quantile(ds, 0.5)/1e3, "us")
		b.put("kvstore."+c.name+"_call_us_p99", quantile(ds, 0.99)/1e3, "us")
	}
	flush := s1.FlushNanos.Sub(&s0.FlushNanos)
	b.put("kvstore.flush_us_p50", float64(flush.Quantile(0.5))/1e3, "us")
	b.put("kvstore.flush_us_p99", float64(flush.Quantile(0.99))/1e3, "us")
	flushes := float64(s1.Flushes - s0.Flushes)
	batched := func(c int) float64 { return float64(s1.BatchOps[c].Sum - s0.BatchOps[c].Sum) }
	b.put("kvstore.flushes", flushes, "count")
	b.put("kvstore.gets_per_batch", ratio(batched(kvstore.ClassGet), flushes), "ops")
	b.put("kvstore.writes_per_flush", ratio(batched(kvstore.ClassPut)+batched(kvstore.ClassDelete), flushes), "ops")
	userBytes := float64(traced.puts*(8+kvValueLen) + traced.dels*8)
	b.put("kvstore.write_amp", ratio(float64(s1.AppendedBytes-s0.AppendedBytes), userBytes), "ratio")
	var logBytes int64
	var live int
	for _, sh := range s1.Shards {
		logBytes += sh.LogBytes
		live += sh.Live
	}
	b.put("kvstore.space_amp", ratio(float64(logBytes), float64(live*(8+kvValueLen))), "ratio")
}

// zipf draws ranks in [0, n) with skew theta (Gray et al., SIGMOD 1994).
type zipf struct {
	n, theta, alpha, zetan, eta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	return min(uint64(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), uint64(z.n)-1)
}

// draw picks one request's key (Zipf) and class: 50% get, 25% put,
// 25% delete.
func draw(r *rand.Rand, z *zipf) request {
	c := uint8(0)
	switch r.IntN(4) {
	case 2:
		c = 1
	case 3:
		c = 2
	}
	return request{key: z.next(r), class: c}
}

// schedule draws one worker's requests, Poisson arrivals at rate per
// second for horizon.
func schedule(r *rand.Rand, z *zipf, rate float64, horizon time.Duration) []request {
	var rs []request
	t := 0.0
	for {
		t += r.ExpFloat64() / rate * 1e9
		if t >= float64(horizon) {
			return rs
		}
		rq := draw(r, z)
		rq.due = int64(t)
		rs = append(rs, rq)
	}
}

// schedules splits rate evenly over workers, one seeded stream each.
func schedules(seed, stream uint64, z *zipf, workers int, rate float64, horizon time.Duration) [][]request {
	out := make([][]request, workers)
	for w := range out {
		r := rand.New(rand.NewPCG(seed, stream<<16|uint64(w)))
		out[w] = schedule(r, z, rate/float64(workers), horizon)
	}
	return out
}
