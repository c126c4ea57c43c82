package main

import (
	"runtime"
	"sync"
	"time"
)

// The open-loop generator: each worker owns one Poisson schedule and
// sends every request at its due time whether or not the store kept up.
// Latency is timed from the due time, so a stall also charges the
// requests queued behind it.

// request is one scheduled operation.
type request struct {
	due   int64 // ns after the schedule's epoch
	key   uint64
	class uint8 // 0 get, 1 put, 2 delete
}

// served is what happened to one request.
type served struct {
	due, start, end int64 // ns after the epoch
	class           uint8
	// slept reports that the worker was idle when the request fell due,
	// so start-due is the generator's wake lateness; otherwise it is the
	// time the request queued behind the worker's previous one.
	slept bool
}

// spinNS is how long before a due time a worker stops sleeping and
// yields in a loop instead: Go timers round short sleeps up to about a
// millisecond, which would otherwise dominate a sub-millisecond get.
const spinNS = 1_200_000

// openLoop runs one goroutine per schedule. A request not started by
// cutoff is dropped, so an overloaded rate ends on time; do serves one
// request and reports whether it succeeded. With a tracer, every request
// records a loadgen.request span from its due time to its end, with a
// kvstore.<class> child span around the call.
func openLoop(scheds [][]request, cutoff time.Duration, tr *tracer, do func(w int, rq request) bool) (out [][]served, failed int64) {
	out = make([][]served, len(scheds))
	fails := make([]int64, len(scheds))
	names := [3]string{"kvstore.get", "kvstore.put", "kvstore.delete"}
	epoch := time.Now()
	var wg sync.WaitGroup
	for w := range scheds {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := tr.lane()
			res := make([]served, 0, len(scheds[w]))
			for i, rq := range scheds[w] {
				now := time.Since(epoch).Nanoseconds()
				if now > int64(cutoff) {
					break
				}
				slept := now < rq.due
				for now < rq.due {
					if left := rq.due - now; left > spinNS {
						time.Sleep(time.Duration(left - spinNS))
					} else {
						runtime.Gosched()
					}
					now = time.Since(epoch).Nanoseconds()
				}
				ok := do(w, rq)
				end := time.Since(epoch).Nanoseconds()
				if !ok {
					fails[w]++
				}
				res = append(res, served{rq.due, now, end, rq.class, slept})
				if l != nil {
					off, req := tr.since(epoch), uint64(w)<<32|uint64(i+1)
					id := l.add("loadgen.request", 0, req, off+rq.due, off+end)
					l.add(names[rq.class], id, req, off+now, off+end)
				}
			}
			out[w] = res
		}(w)
	}
	wg.Wait()
	for _, f := range fails {
		failed += f
	}
	return out, failed
}

// closedLoop runs one goroutine per request list, each sending its
// requests back to back, cyclically, for dur. It returns the requests
// completed in each of windows equal windows of the run.
func closedLoop(reqs [][]request, dur time.Duration, windows int, do func(w int, rq request) bool) (done []int64, failed int64) {
	counts := make([][]int64, len(reqs))
	fails := make([]int64, len(reqs))
	width := int64(dur) / int64(windows)
	epoch := time.Now()
	var wg sync.WaitGroup
	for w := range reqs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := make([]int64, windows)
			for i := 0; ; i++ {
				rq := reqs[w][i%len(reqs[w])]
				if !do(w, rq) {
					fails[w]++
				}
				win := time.Since(epoch).Nanoseconds() / width
				if win >= int64(windows) {
					break
				}
				c[win]++
			}
			counts[w] = c
		}(w)
	}
	wg.Wait()
	done = make([]int64, windows)
	for w := range counts {
		for i, n := range counts[w] {
			done[i] += n
		}
		failed += fails[w]
	}
	return done, failed
}
