package main

import "math/bits"

// hist is a fixed-size log-linear histogram of non-negative durations in
// ns: exact below 128 ns, then 64 buckets per power of two (under 1.6%
// relative width). Its memory does not grow with the sample count, so
// recording does not move the peak RSS the benchmark reports.
type hist struct {
	n       int64
	buckets [64 * 64]int64
}

const histSub = 6 // log2 of buckets per power of two

func histIndex(v int64) int {
	if v < 2<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSub // v >> e is in [64, 128)
	return e<<histSub + int(v>>e)
}

// histLow is the smallest value in bucket i; bucket i spans
// [histLow(i), histLow(i+1)).
func histLow(i int) float64 {
	if i < 2<<histSub {
		return float64(i)
	}
	e := i>>histSub - 1
	return float64(int64(i-e<<histSub) << e)
}

func (h *hist) add(v int64) {
	h.buckets[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// quantile interpolates linearly by rank inside the bucket holding the
// q-quantile, so the estimate moves continuously with the data.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			frac := (rank - float64(seen) + 0.5) / float64(c)
			lo, hi := histLow(i), histLow(i+1)
			return lo + frac*(hi-lo)
		}
		seen += c
	}
	return histLow(len(h.buckets) - 1)
}
