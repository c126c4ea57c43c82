package adaptive

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hcf/internal/core"
	"hcf/internal/memsim"
	"hcf/internal/trace"
)

// TestTunerGrowsAndPromotesConflictFree drives only conflict-free work: the
// tuner must grow the class's private budget to the cap and then dismantle
// its combining budget, journaling each step with its evidence.
func TestTunerGrowsAndPromotesConflictFree(t *testing.T) {
	const threads = 8
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	tun := NewTuner(fw, nil, nil, TunerConfig{
		MinOpsPerEpoch: 16, MaxPrivate: 6, Hysteresis: 1, Cooldown: 1,
	})
	cold := make([]memsim.Addr, threads)
	for i := range cold {
		cold[i] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 600; i++ {
			fw.Execute(th, coldOp{addr: cold[th.ID()]})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	p, _, c := fw.Trials(1)
	if p != 6 {
		t.Errorf("cold private budget = %d, want cap 6", p)
	}
	if c != 0 {
		t.Errorf("cold combining budget = %d, want 0 after promotion", c)
	}
	var grows, promotes int
	for _, d := range tun.Journal().Decisions() {
		if d.Class != 1 {
			t.Errorf("decision on idle class: %+v", d)
		}
		switch d.Rule {
		case RuleGrowPrivate:
			grows++
		case RulePromote:
			promotes++
		}
		if d.Evidence.PrivFrac < 0.9 {
			t.Errorf("%s fired on priv_frac %.2f", d.Rule, d.Evidence.PrivFrac)
		}
	}
	if grows != 2 || promotes != 2 {
		t.Errorf("journal has %d grows and %d promotes, want 2 and 2\n%s",
			grows, promotes, tun.Journal().Text())
	}
}

// TestTunerSkipsPrivateOnConflictEvidence drives always-conflicting work
// with trace attribution attached: the tuner must cut TryPrivate to zero
// and record the hot line (with its dominant writer) as evidence.
func TestTunerSkipsPrivateOnConflictEvidence(t *testing.T) {
	const threads = 12
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	col := &trace.Collector{Limit: 1}
	fw.SetTracer(col)
	tun := NewTuner(fw, nil, col, TunerConfig{
		MinOpsPerEpoch: 16, LowPrivate: 0.85, SkipConflict: 0.5,
		Hysteresis: 1, Cooldown: 1, ProbeEpochs: 1 << 30, // stay parked once skipped
	})
	hot := env.Alloc(1)
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 400; i++ {
			fw.Execute(th, hotOp{addr: hot})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	p, _, _ := fw.Trials(0)
	if p != 0 {
		t.Fatalf("hot private budget = %d, want 0 after skip\n%s", p, tun.Journal().Text())
	}
	var skip *Decision
	for _, d := range tun.Journal().Decisions() {
		if d.Rule == RuleSkipPrivate {
			skip = &d
			break
		}
	}
	if skip == nil {
		t.Fatalf("no skip-private decision\n%s", tun.Journal().Text())
	}
	if skip.New.Private != 0 {
		t.Errorf("skip-private wrote private=%d", skip.New.Private)
	}
	if skip.Evidence.ConflictFrac < 0.5 {
		t.Errorf("skip fired on conflict_frac %.2f", skip.Evidence.ConflictFrac)
	}
	if len(skip.Evidence.HotLines) == 0 {
		t.Error("skip-private decision carries no hot-line attribution")
	} else if hl := skip.Evidence.HotLines[0]; hl.Aborts == 0 || hl.TopWriter < 0 {
		t.Errorf("hot-line evidence incomplete: %+v", hl)
	}
}

// TestTunerProbeRevivesParkedClass parks a class (zero private trials) on
// conflict-free work with no trace collector: the scheduled probe alone
// must revive speculation, and the following epochs must grow it.
func TestTunerProbeRevivesParkedClass(t *testing.T) {
	const threads = 4
	env := memsim.NewDet(memsim.DetConfig{Threads: threads})
	fw := twoClassFramework(t, env)
	fw.SetTrials(0, 0, 0, 4)
	tun := NewTuner(fw, nil, nil, TunerConfig{
		MinOpsPerEpoch: 8, ProbeEpochs: 2, Hysteresis: 1, Cooldown: 1,
	})
	cold := make([]memsim.Addr, threads)
	for i := range cold {
		cold[i] = env.Alloc(memsim.WordsPerLine)
	}
	env.Run(func(th *memsim.Thread) {
		for i := 0; i < 400; i++ {
			fw.Execute(th, hotOp{addr: cold[th.ID()]})
			if th.ID() == 0 && i%10 == 9 {
				tun.Step(th.Now())
			}
		}
	})
	ds := tun.Journal().Decisions()
	if len(ds) == 0 || ds[0].Rule != RuleRevivePrivate {
		t.Fatalf("first decision is not revive-private\n%s", tun.Journal().Text())
	}
	if ds[0].Old.Private != 0 || ds[0].New.Private != 2 {
		t.Errorf("revive wrote %d -> %d, want 0 -> floor 2", ds[0].Old.Private, ds[0].New.Private)
	}
	p, _, _ := fw.Trials(0)
	if p < 2 {
		t.Errorf("private budget = %d after probe, want >= floor", p)
	}
	var grows int
	for _, d := range ds[1:] {
		if d.Rule == RuleGrowPrivate {
			grows++
		}
	}
	if grows == 0 {
		t.Errorf("probe evidence never converted into growth\n%s", tun.Journal().Text())
	}
}

// TestTunerJournalDeterministic pins the replay contract: the same seed on
// the deterministic backend yields a byte-identical journal JSON.
func TestTunerJournalDeterministic(t *testing.T) {
	run := func() []byte {
		const threads = 8
		env := memsim.NewDet(memsim.DetConfig{Threads: threads})
		fw := twoClassFramework(t, env)
		col := &trace.Collector{Limit: 1}
		fw.SetTracer(col)
		tun := NewTuner(fw, nil, col, TunerConfig{MinOpsPerEpoch: 16, Hysteresis: 1, Cooldown: 1})
		hot := env.Alloc(1)
		cold := make([]memsim.Addr, threads)
		for i := range cold {
			cold[i] = env.Alloc(memsim.WordsPerLine)
		}
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 300; i++ {
				fw.Execute(th, hotOp{addr: hot})
				fw.Execute(th, coldOp{addr: cold[th.ID()]})
				if th.ID() == 0 && i%10 == 9 {
					tun.Step(th.Now())
				}
			}
		})
		out, err := tun.Journal().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if tun.Journal().Len() == 0 {
			t.Fatal("journal empty; test exercised nothing")
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("journal JSON differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	var ds []Decision
	if err := json.Unmarshal(a, &ds); err != nil {
		t.Fatalf("journal JSON does not round-trip: %v", err)
	}
	for i, d := range ds {
		if d.Seq != i {
			t.Errorf("decision %d has seq %d", i, d.Seq)
		}
	}
}

// TestTunerIdleIsInvisible runs the same workload with and without a tuner
// whose epoch gate never passes: budgets, journal, results and per-thread
// virtual clocks must all be indistinguishable from the tunerless run.
func TestTunerIdleIsInvisible(t *testing.T) {
	const threads = 6
	run := func(withTuner bool) (uint64, []int64) {
		env := memsim.NewDet(memsim.DetConfig{Threads: threads})
		fw := twoClassFramework(t, env)
		var tun *Tuner
		if withTuner {
			tun = NewTuner(fw, nil, nil, TunerConfig{MinOpsPerEpoch: 1 << 60})
		}
		hot := env.Alloc(1)
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 200; i++ {
				fw.Execute(th, hotOp{addr: hot})
				if tun != nil && th.ID() == 0 {
					tun.Step(th.Now())
				}
			}
		})
		if withTuner {
			if tun.Journal().Len() != 0 {
				t.Fatalf("idle tuner recorded decisions:\n%s", tun.Journal().Text())
			}
			p, v, c := fw.Trials(0)
			if p != 4 || v != 3 || c != 2 {
				t.Fatalf("idle tuner changed budgets: %d/%d/%d", p, v, c)
			}
		}
		clocks := make([]int64, threads)
		for i := range clocks {
			clocks[i] = env.Now(i)
		}
		return env.Boot().Load(hot), clocks
	}
	plainOps, plainClocks := run(false)
	tunedOps, tunedClocks := run(true)
	if plainOps != tunedOps {
		t.Fatalf("op counts differ: %d vs %d", plainOps, tunedOps)
	}
	for i := range plainClocks {
		if plainClocks[i] != tunedClocks[i] {
			t.Fatalf("thread %d clock perturbed by idle tuner: %d vs %d",
				i, plainClocks[i], tunedClocks[i])
		}
	}
}

// TestTunerConcurrentSetTrialsRespectsClamps stresses the apply-time
// read-modify-write under schedule exploration: a hostile thread keeps
// installing out-of-bounds budgets, and every budget the tuner writes back
// (i.e. every journaled decision) must respect its configured caps.
func TestTunerConcurrentSetTrialsRespectsClamps(t *testing.T) {
	const (
		threads      = 6
		maxPrivate   = 5
		maxCombining = 5
	)
	for seed := uint64(0); seed < 12; seed++ {
		env := memsim.NewDet(memsim.DetConfig{
			Threads: threads,
			Explore: memsim.ExploreConfig{Seed: seed, PreemptBudget: 32, JitterClass: 2},
		})
		fw := twoClassFramework(t, env)
		tun := NewTuner(fw, nil, nil, TunerConfig{
			MinOpsPerEpoch: 16, LowPrivate: 0.85,
			MaxPrivate: maxPrivate, MaxCombining: maxCombining,
			Hysteresis: 1, Cooldown: 1,
		})
		hot := env.Alloc(1)
		env.Run(func(th *memsim.Thread) {
			for i := 0; i < 300; i++ {
				fw.Execute(th, hotOp{addr: hot})
				switch {
				case th.ID() == 0 && i%25 == 24:
					tun.Step(th.Now())
				case th.ID() == 1 && i%40 == 10:
					fw.SetTrials(0, 0, 1, 50)
				}
			}
		})
		if tun.Journal().Len() == 0 {
			t.Fatalf("seed %d: tuner never decided; test exercised nothing", seed)
		}
		for _, d := range tun.Journal().Decisions() {
			n := d.New
			if n.Private < 0 || n.Private > maxPrivate || n.Visible < 0 || n.Combining < 0 || n.Combining > maxCombining {
				t.Fatalf("seed %d: journaled write violates clamps: %+v", seed, d)
			}
		}
	}
}

// TestJournalRenders sanity-checks the three export formats on a synthetic
// journal.
func TestJournalRenders(t *testing.T) {
	j := &Journal{}
	j.append(Decision{Epoch: 3, Time: 700, Class: 0, Name: "insert", Rule: RuleGrowPrivate,
		Old: core.PolicyState{Private: 2, MaxBatch: 8}, New: core.PolicyState{Private: 3, MaxBatch: 8},
		Evidence: Evidence{Ops: 64, PrivFrac: 0.97, Peer: -1}})
	j.append(Decision{Epoch: 5, Time: 900, Class: 1, Name: "removemin", Rule: RuleDrift,
		Old: core.PolicyState{Combining: 4}, New: core.PolicyState{Combining: 4},
		Evidence: Evidence{Ops: 80, AbortRate: 0.7, EWMAAbortRate: 0.2, Attempts: 40, Peer: -1,
			HotLines: []trace.HotLine{{Line: 7, Aborts: 12, TopWriter: 3}}}})
	text := j.Text()
	for _, want := range []string{"grow-private", "drift-reset", "insert", "removemin", "hot line 7"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	out, err := j.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rule": "grow-private"`, `"ewma_abort_rate": 0.2`, `"hot_lines"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}
