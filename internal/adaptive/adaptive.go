// Package adaptive implements the runtime tuning mechanism the paper
// leaves as future work (§2.4): "It is fair to assume that no single
// configuration of HCF fits all data structures and workloads, calling for
// an adaptive runtime mechanism to tune the HCF performance."
//
// The Tuner watches each operation class's evidence in epochs (phase
// completions, plus latency histograms and abort attribution when a
// metrics recorder and a trace collector are attached) and rewrites its
// phase policy: classes that keep succeeding privately earn more private
// attempts (up to a cap), while classes whose speculation keeps failing
// stop burning attempts and reach the combining phases sooner. Every
// change lands in a replayable decision Journal. Because HCF's budgets
// affect performance only — never correctness (§2.1) — tuning is safe
// while operations are in flight.
package adaptive

import (
	"fmt"

	"hcf/internal/core"
)

// ClassSnapshot is one class's entry in a Snapshot: its name and the
// current runtime policy knobs.
type ClassSnapshot struct {
	// Class is the class index; Name its policy name ("" if unnamed).
	Class int    `json:"class"`
	Name  string `json:"name,omitempty"`
	// Policy is the class's current runtime policy state (budgets, batch
	// bound, publication array).
	Policy core.PolicyState `json:"policy"`
}

// Snapshot is a JSON-marshalable picture of a framework's current per-class
// budgets and policies. Its String method renders the legacy log form.
type Snapshot struct {
	Classes []ClassSnapshot `json:"classes"`
}

// String renders the snapshot in the free-form log format earlier versions
// of Snapshot returned directly.
func (s Snapshot) String() string {
	out := ""
	for _, c := range s.Classes {
		out += fmt.Sprintf("class %d: private=%d visible=%d combining=%d\n",
			c.Class, c.Policy.Private, c.Policy.Visible, c.Policy.Combining)
	}
	return out
}

// snapshotOf assembles the per-class policy snapshot of fw.
func snapshotOf(fw *core.Framework) Snapshot {
	var s Snapshot
	for class := 0; class < fw.NumClasses(); class++ {
		s.Classes = append(s.Classes, ClassSnapshot{
			Class:  class,
			Name:   fw.ClassName(class),
			Policy: fw.PolicyState(class),
		})
	}
	return s
}
