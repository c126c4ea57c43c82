package main

import "fmt"

// runTraced is the traced run: every workload's layers, each measured
// once untraced and once with spans, within the run's seconds. The spans
// are written to out when the run ends.
func runTraced(b *bench, out, host string) {
	fmt.Printf("== traced run (seed %d, %gs over every workload)\n", b.seed, b.seconds)
	b.tr = newTracer()
	traceNative(b, b.duration(0.35))
	traceKV(b, b.duration(0.4))
	traceSim(b, b.duration(0.25))
	kept, dropped, err := b.tr.write(out, map[string]any{"host": host, "seed": b.seed, "seconds": b.seconds})
	b.check(err == nil, "writing spans: %v", err)
	fmt.Printf("  spans: %d kept, %d dropped, in %s\n", kept, dropped, out)
	b.printMetrics()
}
