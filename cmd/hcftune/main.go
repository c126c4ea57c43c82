// Command hcftune runs the evidence-driven policy autotuner on the
// drifting priority-queue workload and renders the resulting comparison —
// every hand-picked static policy, the tuned run, and the clairvoyant
// per-segment oracle — together with the tuner's decision journal, where
// every policy change carries the evidence that triggered it.
//
// Usage:
//
//	hcftune                            # text comparison + decision journal
//	hcftune -threads 36 -horizon 900000 -seed 1
//	hcftune -format json               # one JSON object: report + journal
//	hcftune -format jsonl              # benchmark record (bench/AUTOTUNE_sweep.jsonl)
//	hcftune -format prom               # journal as Prometheus exposition
//	hcftune -journal-out tuner.json    # also write the journal as JSON
//	hcftune -sweep-out sweep.jsonl     # also write the sweep rows
//	hcftune -gate 0.9                  # fail if tuned < 0.9x the paper baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hcf/internal/adaptive"
	"hcf/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hcftune:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hcftune", flag.ContinueOnError)
	var (
		threads    = fs.Int("threads", 36, "worker threads")
		horizon    = fs.Int64("horizon", 900_000, "virtual cycles (drift points at 1/3 and 2/3)")
		seed       = fs.Uint64("seed", 1, "workload seed")
		format     = fs.String("format", "text", "text | json | jsonl | prom")
		journalOut = fs.String("journal-out", "", "write the decision journal (JSON) to this file")
		sweepOut   = fs.String("sweep-out", "", "write the benchmark record (JSON Lines) to this file")
		gate       = fs.Float64("gate", 0, "fail unless tuned throughput >= gate x the HCF-paper baseline (0 = no gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := harness.RunAutotune(*threads, harness.Config{Horizon: *horizon, Seed: *seed})
	if err != nil {
		return err
	}

	switch *format {
	case "text":
		fmt.Print(rep.Text())
		fmt.Printf("\ndecision journal (%d entries):\n%s", rep.Journal.Len(), rep.Journal.Text())
	case "json":
		out, err := json.MarshalIndent(struct {
			*harness.AutotuneReport
			Journal []adaptive.Decision `json:"journal"`
		}{rep, rep.Journal.Decisions()}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	case "jsonl":
		out, err := rep.Record()
		if err != nil {
			return err
		}
		os.Stdout.Write(out)
	case "prom":
		fmt.Print(rep.Journal.Prometheus(rep.Scenario, "HCF-tuned"))
	default:
		return fmt.Errorf("unknown format %q (want text, json, jsonl or prom)", *format)
	}

	if *journalOut != "" {
		out, err := rep.Journal.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*journalOut, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *sweepOut != "" {
		out, err := rep.Record()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*sweepOut, out, 0o644); err != nil {
			return err
		}
	}

	for _, v := range rep.Variants {
		if v.InvariantViolation != "" {
			return fmt.Errorf("%s: invariant violation: %s", v.Name, v.InvariantViolation)
		}
	}
	if *gate > 0 {
		tuned, base := rep.Tuned(), rep.Variant("HCF-paper")
		if tuned == nil || base == nil {
			return fmt.Errorf("gate: missing tuned or baseline variant")
		}
		ratio := tuned.Throughput / base.Throughput
		fmt.Fprintf(os.Stderr, "gate: tuned %.1f vs paper baseline %.1f (%.2fx, need >= %.2fx)\n",
			tuned.Throughput, base.Throughput, ratio, *gate)
		if ratio < *gate {
			return fmt.Errorf("autotuned throughput %.1f fell below %.2fx the paper baseline %.1f",
				tuned.Throughput, *gate, base.Throughput)
		}
	}
	return nil
}
