package main

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"hcf/internal/harness"
	"hcf/internal/htm"
)

// sim-fig2c: harness.RunPoint on the figure-2c hash table (40% finds,
// 16384 buckets), every engine at a few thread counts, serially, with a
// fixed horizon. Rounds of all points repeat until the time is up; every
// round after the first replays the first and must match it exactly.
const simHorizon = 200_000

var simThreads = []int{1, 8, 36}

type simPoint struct {
	engine  string
	threads int
}

func simPoints() []simPoint {
	var ps []simPoint
	for _, th := range simThreads {
		for _, e := range harness.EngineNames {
			ps = append(ps, simPoint{e, th})
		}
	}
	return ps
}

// simRound is one pass over every point.
type simRound struct {
	results []harness.Result
	host    time.Duration
	pointNS []float64 // host time per point
}

func (r *simRound) mcycles() float64 {
	var c int64
	for _, res := range r.results {
		c += res.Cycles
	}
	return float64(c) / 1e6
}

// runSimRound measures every point once. Each RunPoint call becomes a
// span when l is non-nil.
func runSimRound(b *bench, horizon int64, l *lane) simRound {
	sc := harness.HashTableScenario(40, 16384)
	cfg := harness.Config{Horizon: horizon, Seed: b.seed, Parallel: 1}
	var r simRound
	start := time.Now()
	for _, p := range simPoints() {
		t0 := time.Now()
		res, err := harness.RunPoint(sc, p.engine, p.threads, cfg)
		t1 := time.Now()
		if !b.check(err == nil, "sim %s/%d: %v", p.engine, p.threads, err) {
			b.count(0, 1)
			continue
		}
		if !b.check(res.InvariantViolation == "", "sim %s/%d: invariant violated: %s", p.engine, p.threads, res.InvariantViolation) {
			b.count(0, 1)
		}
		if l != nil {
			l.add("harness.RunPoint", 0, 0, b.tr.since(t0), b.tr.since(t1))
		}
		r.pointNS = append(r.pointNS, float64(t1.Sub(t0).Nanoseconds()))
		r.results = append(r.results, res)
	}
	r.host = time.Since(start)
	return r
}

// sameSim checks that a round's simulated statistics equal the first's.
func sameSim(b *bench, label string, first, r simRound) {
	if !b.check(reflect.DeepEqual(first.results, r.results), "sim: %s differs from the first round's simulated statistics", label) {
		b.count(0, 1)
	}
}

func setupSim(b *bench) float64 {
	return timed(5, func() { runSimRound(b, 1, nil) })
}

func runSim(b *bench) {
	setup := setupSim(b)
	var rounds []simRound
	var rates []float64
	deadline := time.Now().Add(b.duration(1))
	for len(rounds) < 2 || time.Now().Before(deadline) {
		r := runSimRound(b, simHorizon, nil)
		if len(rounds) > 0 {
			sameSim(b, fmt.Sprintf("round %d", len(rounds)+1), rounds[0], r)
		}
		rounds = append(rounds, r)
		rates = append(rates, r.mcycles()/r.host.Seconds())
	}
	// Each point's host time is the median over rounds; the latency
	// metrics are quantiles over the points of those medians.
	var pointNS []float64
	for i := range rounds[0].pointNS {
		var ns []float64
		for _, r := range rounds {
			ns = append(ns, r.pointNS[i])
		}
		pointNS = append(pointNS, quantile(ns, 0.5))
	}
	for _, r := range rounds {
		for _, res := range r.results {
			b.count(int64(res.Ops), 0)
		}
	}
	mcps := quantile(rates, 0.5)
	b.put("sim.mcycles_per_host_s", mcps, "Mcycles/s")
	b.put("sim.hcf_ops_per_mcycle", hcfTop(rounds[0]).Throughput, "ops/Mcycle")
	b.put("sim.rounds", float64(len(rounds)), "count")
	b.put("setup_s", setup, "s")
	b.put("throughput_per_s", mcps*1e6, "1/s")
	b.put("latency_p50_us", quantile(pointNS, 0.5)/1e3, "us")
	b.put("latency_p99_us", quantile(pointNS, 0.99)/1e3, "us")
}

// hcfTop is the HCF point at the largest thread count.
func hcfTop(r simRound) harness.Result {
	top := simThreads[len(simThreads)-1]
	for _, res := range r.results {
		if res.Engine == "HCF" && res.Threads == top {
			return res
		}
	}
	return harness.Result{}
}

// traceSim is sim-fig2c's part of the traced run, given share of the
// run's time: pairs of one untraced round and one round with a span
// around every RunPoint call. Every round must reproduce the first
// one's simulated statistics exactly. Host times are the medians over
// the pairs.
func traceSim(b *bench, share time.Duration) {
	var plainS, tracedS []float64
	var first simRound
	deadline := time.Now().Add(share)
	for len(plainS) == 0 || time.Now().Before(deadline) {
		plain := runSimRound(b, simHorizon, nil)
		traced := runSimRound(b, simHorizon, b.tr.lane())
		if len(plainS) == 0 {
			first = plain
		} else {
			sameSim(b, "untraced round", first, plain)
		}
		sameSim(b, "traced round", first, traced)
		plainS = append(plainS, plain.host.Seconds())
		tracedS = append(tracedS, traced.host.Seconds())
	}
	plain, host := first, quantile(plainS, 0.5)
	var accesses uint64
	for _, res := range plain.results {
		accesses += res.Mem.Loads + res.Mem.Stores
		b.count(int64(res.Ops), 0)
		name := fmt.Sprintf("sim.ops_per_mcycle.%s.%d", strings.ReplaceAll(res.Engine, "+", "_"), res.Threads)
		b.put(name, res.Throughput, "ops/Mcycle")
	}
	b.put("trace_overhead_frac.sim-fig2c", ratio(quantile(tracedS, 0.5), host), "ratio")
	b.put("sim.mcycles_per_host_s", plain.mcycles()/host, "Mcycles/s")
	b.put("memsim.accesses_per_host_s", float64(accesses)/host, "1/s")
	b.put("memsim.host_ns_per_access", ratio(host*1e9, float64(accesses)), "ns")

	h := hcfTop(plain)
	m := h.Metrics
	b.put("sim.hcf_ops_per_mcycle", h.Throughput, "ops/Mcycle")
	b.put("memsim.l1_miss_rate", h.Mem.MissRate(), "frac")
	aborts := m.HTM.TotalAborts()
	b.put("htm.abort_ratio", ratio(float64(aborts), float64(m.HTM.Started)), "ratio")
	b.put("htm.capacity_abort_frac", ratio(float64(m.HTM.Aborts[htm.ReasonCapacity]), float64(aborts)), "frac")
	for p, name := range []string{"try_private", "try_visible", "try_combining", "under_lock"} {
		b.put("core.phase_frac."+name, ratio(float64(m.PhaseCompleted[p]), float64(m.Ops)), "frac")
	}
	b.put("core.combining_degree", m.CombiningDegree(), "ops")
	b.put("core.lock_acq_per_op", ratio(float64(m.LockAcquisitions), float64(m.Ops)), "ratio")
}
