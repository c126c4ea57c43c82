package harness

import (
	"fmt"
	"time"
)

// HostSpeedReport is the hostspeed figure: the host wall-clock cost of one
// simulator sweep (by default figure 2c, every engine). Simulated work per
// host second limits every experiment, so it is tracked like any other
// wall-clock figure; its record is bench/HOSTSPEED.jsonl.
type HostSpeedReport struct {
	// Sweep is the ID of the timed figure.
	Sweep    string         `json:"sweep"`
	Threads  []int          `json:"threads"`
	Engines  []string       `json:"engines"`
	Horizon  int64          `json:"horizon"`
	Seed     uint64         `json:"seed"`
	Parallel int            `json:"parallel"`
	Point    HostSpeedPoint `json:"-"`
}

// HostSpeedPoint is the hostspeed figure's single point.
type HostSpeedPoint struct {
	WallSec float64 `json:"wall_seconds"`
	// SimMcyclesPerHostSec is the gated metric: simulated megacycles
	// executed per second of host wall-clock time. Per-point set-up and
	// sweep parallelism move it, so it is only gated at the baseline's
	// config.
	SimMcyclesPerHostSec float64 `json:"sim_mcycles_per_host_sec"`
	OpsPerHostSec        float64 `json:"ops_per_host_sec"`
	// Handoffs, HeapSwaps and WaitSteps sum memsim.HostWork over the
	// sweep. They are deterministic, so the gate fails on any increase
	// over the baseline, which no amount of wall-clock noise can pass.
	Handoffs  uint64 `json:"handoffs"`
	HeapSwaps uint64 `json:"heap_swaps"`
	WaitSteps uint64 `json:"wait_steps"`
	// InvariantViolation carries the first violation of the timed sweep.
	InvariantViolation string `json:"invariant_violation,omitempty"`
}

// RunHostSpeed times one RunFigure sweep of f.
func RunHostSpeed(f Figure, cfg Config) (*HostSpeedReport, error) {
	start := time.Now()
	results, err := RunFigure(f, cfg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	rep := &HostSpeedReport{
		Sweep: f.ID, Threads: f.Threads, Engines: f.Engines,
		Horizon: cfg.Horizon, Seed: cfg.Seed, Parallel: cfg.Parallel,
		Point: HostSpeedPoint{WallSec: wall},
	}
	var cycles int64
	var ops uint64
	for _, r := range results {
		cycles += r.Cycles
		ops += r.Ops
		rep.Point.Handoffs += r.HostWork.Handoffs
		rep.Point.HeapSwaps += r.HostWork.HeapSwaps
		rep.Point.WaitSteps += r.HostWork.WaitSteps
		if rep.Point.InvariantViolation == "" && r.InvariantViolation != "" {
			rep.Point.InvariantViolation = fmt.Sprintf("%s %s t=%d: %s", r.Scenario, r.Engine, r.Threads, r.InvariantViolation)
		}
	}
	if wall > 0 {
		rep.Point.SimMcyclesPerHostSec = float64(cycles) / 1e6 / wall
		rep.Point.OpsPerHostSec = float64(ops) / wall
	}
	return rep, nil
}

// Record encodes the report as a "hostspeed" benchmark record.
func (r *HostSpeedReport) Record() ([]byte, error) {
	return EncodeRecord("hostspeed", r, []HostSpeedPoint{r.Point})
}

// Text renders the measurement as one line.
func (r *HostSpeedReport) Text() string {
	p := r.Point
	return fmt.Sprintf("hostspeed: figure %s sweep in %.2fs, %.2f sim Mcycles/s, %.0f ops/s; %d handoffs, %d heap swaps, %d wait steps\n",
		r.Sweep, p.WallSec, p.SimMcyclesPerHostSec, p.OpsPerHostSec, p.Handoffs, p.HeapSwaps, p.WaitSteps)
}
