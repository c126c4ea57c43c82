// Package trace collects and summarizes HCF lifecycle events — the
// performance-debugging companion to the framework: where speculation
// fails and why, how large combiner selections get, how often operations
// get helped vs self-completed, which cache lines and threads cause
// conflict aborts, and (via span.go / chrome.go) per-operation causal
// spans exportable to Perfetto.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hcf/internal/core"
	"hcf/internal/htm"
)

// Collector records framework events into per-thread buffers. The hot path
// is lock-free: each emitting thread writes only its own shard (created
// once, on that thread's first event), so tracing never serializes the
// threads it observes. Install it with Framework.SetTracer (or any
// baseline engine's SetTracer).
//
// With Limit > 0 the collector is a bounded flight recorder: each thread
// retains a ring of its most recent Limit events and Dropped() counts the
// overwritten ones (summed across threads). Aggregate counters always
// cover every event, so a truncated timeline is never mistaken for a
// complete one. With Limit == 0 every event is retained.
//
// Trace and the counter accessors (Starts, Retained, Dropped) are safe for
// concurrent use on the real backend. Snapshot methods that walk the
// retained events (Events, Summary, FormatTimeline, HotLines, SummaryData)
// must run while no thread is emitting — in practice, after env.Run
// returns.
type Collector struct {
	// Limit bounds the number of retained events per emitting thread
	// (0 = retain everything). Aggregate counters keep covering all
	// events past the limit; the newest events win the ring.
	Limit int

	mu     sync.Mutex // guards shard-registry growth only
	shards atomic.Pointer[[]*shard]
}

// shard is one thread's event buffer and counters. Only its owning thread
// writes it; pos and dropped are atomic so counter accessors stay safe
// during a run.
type shard struct {
	ring    []core.TraceEvent
	pos     atomic.Uint64 // events ever written by this thread
	dropped atomic.Uint64 // events overwritten in the ring
	starts  atomic.Uint64

	locks    uint64
	attempts [core.NumPhases][htm.NumReasons]uint64
	dones    [core.NumPhases]uint64
	helped   [core.NumPhases]uint64
	helps    uint64
	selectN  []uint64 // selectN[n] = selections of exactly n operations
	// conflicts counts conflict aborts keyed by line<<32|uint32(writer+1),
	// feeding the hot-line report.
	conflicts map[uint64]uint64
	// curClass is the class of the thread's current operation, set by
	// TraceStart; subsequent attempts are attributed to it (a combiner's
	// batch attempts count against the combiner's own class).
	curClass int
	// classAttempts[class][phase][reason] is the per-class attempt
	// taxonomy, grown on demand.
	classAttempts [][core.NumPhases][htm.NumReasons]uint64
	// classSelects[class] = {selections, summed selection size} made by
	// combiners running an operation of that class.
	classSelects [][2]uint64
	// classConflicts counts conflict aborts keyed by
	// class<<48|line<<16|uint16(writer+1), feeding ClassHotLines.
	classConflicts map[uint64]uint64
	_              [64]byte
}

var _ core.Tracer = (*Collector)(nil)

// shardFor returns thread t's shard, creating it on first use. The fast
// path is one atomic load and two bounds checks.
func (c *Collector) shardFor(t int) *shard {
	if t < 0 {
		t = 0
	}
	if p := c.shards.Load(); p != nil && t < len(*p) && (*p)[t] != nil {
		return (*p)[t]
	}
	return c.growShard(t)
}

func (c *Collector) growShard(t int) *shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur []*shard
	if p := c.shards.Load(); p != nil {
		cur = *p
	}
	if t < len(cur) && cur[t] != nil {
		return cur[t]
	}
	n := len(cur)
	if t+1 > n {
		n = t + 1
	}
	grown := make([]*shard, n)
	copy(grown, cur)
	grown[t] = &shard{
		conflicts:      make(map[uint64]uint64),
		classConflicts: make(map[uint64]uint64),
	}
	c.shards.Store(&grown)
	return grown[t]
}

// snapshot returns the current shard registry.
func (c *Collector) snapshot() []*shard {
	if p := c.shards.Load(); p != nil {
		return *p
	}
	return nil
}

// conflictKey packs a (line, writer) pair for the conflicts map.
func conflictKey(line uint32, writer int) uint64 {
	return uint64(line)<<32 | uint64(uint32(writer+1))
}

// classConflictKey packs a (class, line, writer) triple for the
// classConflicts map. Writers are thread ids and fit 16 bits.
func classConflictKey(class int, line uint32, writer int) uint64 {
	return uint64(class)<<48 | uint64(line)<<16 | uint64(uint16(writer+1))
}

// Trace implements core.Tracer. It is called inline on the execution path
// and writes only the emitting thread's shard.
func (c *Collector) Trace(ev core.TraceEvent) {
	s := c.shardFor(ev.Thread)
	pos := s.pos.Load()
	if c.Limit > 0 && len(s.ring) >= c.Limit {
		s.ring[pos%uint64(c.Limit)] = ev
		s.dropped.Add(1)
	} else {
		s.ring = append(s.ring, ev)
	}
	s.pos.Store(pos + 1)
	switch ev.Kind {
	case core.TraceStart:
		s.starts.Add(1)
		s.curClass = ev.Class
	case core.TraceAttempt:
		s.attempts[ev.Phase][ev.Reason]++
		for len(s.classAttempts) <= s.curClass {
			s.classAttempts = append(s.classAttempts, [core.NumPhases][htm.NumReasons]uint64{})
		}
		s.classAttempts[s.curClass][ev.Phase][ev.Reason]++
		if ev.Reason == htm.ReasonConflict {
			s.conflicts[conflictKey(ev.Line, ev.Peer)]++
			s.classConflicts[classConflictKey(s.curClass, ev.Line, ev.Peer)]++
		}
	case core.TraceSelect:
		for len(s.selectN) <= ev.N {
			s.selectN = append(s.selectN, 0)
		}
		s.selectN[ev.N]++
		for len(s.classSelects) <= s.curClass {
			s.classSelects = append(s.classSelects, [2]uint64{})
		}
		s.classSelects[s.curClass][0]++
		s.classSelects[s.curClass][1] += uint64(ev.N)
	case core.TraceLock:
		s.locks++
	case core.TraceDone:
		s.dones[ev.Phase]++
	case core.TraceHelped:
		s.helped[ev.Phase]++
	case core.TraceHelp:
		s.helps++
	}
}

// chronological returns one shard's retained events oldest-first.
func (s *shard) chronological(limit int) []core.TraceEvent {
	pos := s.pos.Load()
	if limit == 0 || len(s.ring) < limit || pos <= uint64(len(s.ring)) {
		out := make([]core.TraceEvent, len(s.ring))
		copy(out, s.ring)
		return out
	}
	head := int(pos % uint64(limit)) // oldest retained event
	out := make([]core.TraceEvent, 0, len(s.ring))
	out = append(out, s.ring[head:]...)
	out = append(out, s.ring[:head]...)
	return out
}

// Events returns the retained event stream of all threads merged into one
// timeline, ordered by (Now, Thread); within a thread, emission order is
// preserved. On the deterministic backend the merged stream is bit-exact
// reproducible for a given seed.
func (c *Collector) Events() []core.TraceEvent {
	var out []core.TraceEvent
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		out = append(out, s.chronological(c.Limit)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Now != out[j].Now {
			return out[i].Now < out[j].Now
		}
		return out[i].Thread < out[j].Thread
	})
	return out
}

// Dropped returns the number of events overwritten in the per-thread
// flight-recorder rings (summed across threads). Summary counters still
// cover them.
func (c *Collector) Dropped() uint64 {
	var n uint64
	for _, s := range c.snapshot() {
		if s != nil {
			n += s.dropped.Load()
		}
	}
	return n
}

// Retained returns the number of currently retained events. It is derived
// from the atomic per-thread write positions (a full ring retains exactly
// Limit events), so it is safe to call from any goroutine mid-run.
func (c *Collector) Retained() int {
	n := 0
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		p := s.pos.Load()
		if c.Limit > 0 && p > uint64(c.Limit) {
			p = uint64(c.Limit)
		}
		n += int(p)
	}
	return n
}

// Starts returns the number of operations that entered Execute.
func (c *Collector) Starts() uint64 {
	var n uint64
	for _, s := range c.snapshot() {
		if s != nil {
			n += s.starts.Load()
		}
	}
	return n
}

// HotLine is one entry of the conflict-attribution report: a cache line,
// how many conflict aborts it caused, and the thread whose writes caused
// most of them.
type HotLine struct {
	// Line is the conflicting cache line.
	Line uint32 `json:"line"`
	// Aborts is the number of conflict aborts attributed to the line.
	Aborts uint64 `json:"aborts"`
	// TopWriter is the thread whose writes caused the most aborts on this
	// line (-1 if the writer was unknown).
	TopWriter int `json:"top_writer"`
	// TopWriterAborts is the abort count attributed to TopWriter.
	TopWriterAborts uint64 `json:"top_writer_aborts"`
}

// HotLines aggregates conflict aborts by cache line and returns the top n
// lines by abort count (all of them when n <= 0), each attributed to its
// dominant writer thread.
func (c *Collector) HotLines(n int) []HotLine {
	byLine := make(map[uint32]map[int]uint64)
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		for key, count := range s.conflicts {
			line := uint32(key >> 32)
			writer := int(uint32(key)) - 1
			wc := byLine[line]
			if wc == nil {
				wc = make(map[int]uint64)
				byLine[line] = wc
			}
			wc[writer] += count
		}
	}
	return topHotLines(byLine, n)
}

// topHotLines folds a line→writer→count aggregation into the sorted
// hot-line report (top n by abort count; all when n <= 0).
func topHotLines(byLine map[uint32]map[int]uint64, n int) []HotLine {
	out := make([]HotLine, 0, len(byLine))
	for line, wc := range byLine {
		hl := HotLine{Line: line, TopWriter: -1}
		for writer, count := range wc {
			hl.Aborts += count
			if count > hl.TopWriterAborts ||
				(count == hl.TopWriterAborts && writer > hl.TopWriter) {
				hl.TopWriter = writer
				hl.TopWriterAborts = count
			}
		}
		out = append(out, hl)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		return out[i].Line < out[j].Line
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ClassAttempts aggregates the per-class speculative-attempt taxonomy:
// out[class][phase][reason] counts finished attempts of operations of that
// class (a combiner's batch attempts count against the combiner's class).
// Like the other aggregate counters it covers every event regardless of
// Limit. Reading during a run is safe only where shard writers cannot be
// mid-update — in practice on the deterministic backend (cooperative
// scheduling) or after env.Run returns.
func (c *Collector) ClassAttempts() [][core.NumPhases][htm.NumReasons]uint64 {
	var out [][core.NumPhases][htm.NumReasons]uint64
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		for cl := range s.classAttempts {
			for len(out) <= cl {
				out = append(out, [core.NumPhases][htm.NumReasons]uint64{})
			}
			for p := 0; p < core.NumPhases; p++ {
				for r := 0; r < htm.NumReasons; r++ {
					out[cl][p][r] += s.classAttempts[cl][p][r]
				}
			}
		}
	}
	return out
}

// ClassSelections aggregates combiner selections by the combiner's
// operation class: out[class] = {selections, summed selection size}, so
// out[class][1]/out[class][0] is the class's mean combining degree. Same
// in-run safety caveat as ClassAttempts.
func (c *Collector) ClassSelections() [][2]uint64 {
	var out [][2]uint64
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		for cl := range s.classSelects {
			for len(out) <= cl {
				out = append(out, [2]uint64{})
			}
			out[cl][0] += s.classSelects[cl][0]
			out[cl][1] += s.classSelects[cl][1]
		}
	}
	return out
}

// ClassHotLines is HotLines restricted to conflict aborts suffered by
// operations of one class: which cache lines abort this class's
// speculation, and which thread's writes dominate each.
func (c *Collector) ClassHotLines(class, n int) []HotLine {
	byLine := make(map[uint32]map[int]uint64)
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		for key, count := range s.classConflicts {
			if int(key>>48) != class {
				continue
			}
			line := uint32(key >> 16)
			writer := int(uint16(key)) - 1
			wc := byLine[line]
			if wc == nil {
				wc = make(map[int]uint64)
				byLine[line] = wc
			}
			wc[writer] += count
		}
	}
	return topHotLines(byLine, n)
}

// selectionStats summarizes combiner selection sizes from the per-shard
// histograms.
type selectionStats struct {
	count            uint64
	min, median, max int
	mean             float64
}

func (c *Collector) selections() selectionStats {
	var hist []uint64
	for _, s := range c.snapshot() {
		if s == nil {
			continue
		}
		for n, cnt := range s.selectN {
			for len(hist) <= n {
				hist = append(hist, 0)
			}
			hist[n] += cnt
		}
	}
	st := selectionStats{min: -1}
	var sum uint64
	for n, cnt := range hist {
		if cnt == 0 {
			continue
		}
		if st.min < 0 {
			st.min = n
		}
		st.max = n
		st.count += cnt
		sum += uint64(n) * cnt
	}
	if st.count == 0 {
		return selectionStats{}
	}
	st.mean = float64(sum) / float64(st.count)
	target := st.count / 2
	var cum uint64
	for n, cnt := range hist {
		cum += cnt
		if cum > target {
			st.median = n
			break
		}
	}
	if st.min < 0 {
		st.min = 0
	}
	return st
}

// SelectionStats summarizes combiner selection sizes observed so far (zero
// value when no combiner has run). Same in-run caveats as ClassAttempts.
func (c *Collector) SelectionStats() Selections {
	st := c.selections()
	return Selections{Count: st.count, Min: st.min, Median: st.median, Max: st.max, Mean: st.mean}
}

// Summary renders SummaryData as an aggregate report.
func (c *Collector) Summary() string {
	d := c.SummaryData()
	var b strings.Builder
	fmt.Fprintf(&b, "operations started: %d\n", d.Starts)
	fmt.Fprintf(&b, "speculative attempts by phase and outcome:\n")
	for _, pa := range d.Attempts {
		fmt.Fprintf(&b, "  %-16s total %-8dcommit %d", pa.Phase, pa.Total, pa.Commits)
		for r := htm.ReasonConflict; r < htm.NumReasons; r++ {
			if n := pa.Aborts[r.String()]; n > 0 {
				fmt.Fprintf(&b, ", %s %d", r, n)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "completions by phase (self / helped):\n")
	for _, pc := range d.Completions {
		fmt.Fprintf(&b, "  %-16s %d / %d\n", pc.Phase, pc.Self, pc.Helped)
	}
	if sel := d.Selections; sel != nil {
		fmt.Fprintf(&b, "combiner selections: %d (sizes min %d, median %d, max %d, mean %.1f)\n",
			sel.Count, sel.Min, sel.Median, sel.Max, sel.Mean)
	}
	fmt.Fprintf(&b, "lock acquisitions by combiners: %d\n", d.Locks)
	if hot := d.HotLines[:min(5, len(d.HotLines))]; len(hot) > 0 {
		fmt.Fprintf(&b, "hottest conflicting cache lines (line: aborts, dominant writer):\n")
		for _, hl := range hot {
			writer := "unknown"
			if hl.TopWriter >= 0 {
				writer = fmt.Sprintf("t%d (%d)", hl.TopWriter, hl.TopWriterAborts)
			}
			fmt.Fprintf(&b, "  line %-8d %-8d %s\n", hl.Line, hl.Aborts, writer)
		}
	}
	if d.Dropped > 0 {
		fmt.Fprintf(&b, "events dropped at Limit=%d: %d (retained %d per-thread newest; counters above cover all events)\n",
			c.Limit, d.Dropped, d.Retained)
	}
	return b.String()
}

// FormatTimeline renders the first n merged events as a per-line log.
func (c *Collector) FormatTimeline(n int) string {
	return FormatEvents(c.Events(), n)
}

// FlightDump renders the LAST n merged events — the flight-recorder view,
// used when a violation is detected and the most recent history matters.
func (c *Collector) FlightDump(n int) string {
	events := c.Events()
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	return FormatEvents(events, 0)
}

// FormatEvents renders up to n events (0 = all) as a per-line log.
func FormatEvents(events []core.TraceEvent, n int) string {
	if n > 0 && len(events) > n {
		events = events[:n]
	}
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "t%-3d @%-10d %-9s", ev.Thread, ev.Now, ev.Kind)
		switch ev.Kind {
		case core.TraceStart, core.TraceAnnounce:
			fmt.Fprintf(&b, " class=%d span=%x", ev.Class, ev.Span)
		case core.TraceAttempt:
			if ev.Reason == htm.ReasonNone {
				fmt.Fprintf(&b, " %s commit", ev.Phase)
			} else {
				fmt.Fprintf(&b, " %s abort(%s)", ev.Phase, ev.Reason)
				switch ev.Reason {
				case htm.ReasonConflict:
					if ev.Peer >= 0 {
						fmt.Fprintf(&b, " line=%d writer=t%d", ev.Line, ev.Peer)
					} else {
						fmt.Fprintf(&b, " line=%d", ev.Line)
					}
				case htm.ReasonLockHeld:
					if ev.Peer >= 0 {
						fmt.Fprintf(&b, " holder=t%d", ev.Peer)
					}
				}
			}
		case core.TraceSelect:
			fmt.Fprintf(&b, " n=%d", ev.N)
		case core.TraceDone:
			fmt.Fprintf(&b, " in %s", ev.Phase)
		case core.TraceHelped:
			fmt.Fprintf(&b, " in %s", ev.Phase)
			if ev.Peer >= 0 {
				fmt.Fprintf(&b, " by=t%d", ev.Peer)
			}
		case core.TraceHelp:
			fmt.Fprintf(&b, " in %s helped=t%d span=%x", ev.Phase, ev.Peer, ev.PeerSpan)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PhaseAttempts is the per-phase attempt breakdown of SummaryData.
type PhaseAttempts struct {
	Phase   string            `json:"phase"`
	Total   uint64            `json:"total"`
	Commits uint64            `json:"commits"`
	Aborts  map[string]uint64 `json:"aborts,omitempty"`
}

// PhaseCompletions is the per-phase completion breakdown of SummaryData.
type PhaseCompletions struct {
	Phase  string `json:"phase"`
	Self   uint64 `json:"self"`
	Helped uint64 `json:"helped"`
}

// Selections summarizes combiner selection sizes in SummaryData.
type Selections struct {
	Count  uint64  `json:"count"`
	Min    int     `json:"min"`
	Median int     `json:"median"`
	Max    int     `json:"max"`
	Mean   float64 `json:"mean"`
}

// SummaryData is the machine-readable form of Summary.
type SummaryData struct {
	Starts      uint64             `json:"starts"`
	Attempts    []PhaseAttempts    `json:"attempts,omitempty"`
	Completions []PhaseCompletions `json:"completions,omitempty"`
	Selections  *Selections        `json:"selections,omitempty"`
	Locks       uint64             `json:"lock_acquisitions"`
	HotLines    []HotLine          `json:"hot_lines,omitempty"`
	Retained    int                `json:"events_retained"`
	Dropped     uint64             `json:"events_dropped"`
}

// SummaryData assembles the aggregate counters into a JSON-friendly
// structure (the machine-readable twin of Summary).
func (c *Collector) SummaryData() SummaryData {
	shards := c.snapshot()
	data := SummaryData{
		Starts:   c.Starts(),
		HotLines: c.HotLines(10),
		Retained: c.Retained(),
		Dropped:  c.Dropped(),
	}
	for p := core.Phase(0); p < core.NumPhases; p++ {
		var byReason [htm.NumReasons]uint64
		var total uint64
		for _, s := range shards {
			if s == nil {
				continue
			}
			for r, n := range s.attempts[p] {
				byReason[r] += n
				total += n
			}
		}
		if total > 0 {
			pa := PhaseAttempts{Phase: p.String(), Total: total, Commits: byReason[htm.ReasonNone]}
			for r := htm.ReasonConflict; r < htm.NumReasons; r++ {
				if n := byReason[r]; n > 0 {
					if pa.Aborts == nil {
						pa.Aborts = make(map[string]uint64)
					}
					pa.Aborts[r.String()] = n
				}
			}
			data.Attempts = append(data.Attempts, pa)
		}
		var dones, helped uint64
		for _, s := range shards {
			if s == nil {
				continue
			}
			dones += s.dones[p]
			helped += s.helped[p]
		}
		if dones > 0 || helped > 0 {
			data.Completions = append(data.Completions, PhaseCompletions{
				Phase: p.String(), Self: dones - helped, Helped: helped,
			})
		}
	}
	for _, s := range shards {
		if s != nil {
			data.Locks += s.locks
		}
	}
	if sel := c.selections(); sel.count > 0 {
		data.Selections = &Selections{
			Count: sel.count, Min: sel.min, Median: sel.median, Max: sel.max, Mean: sel.mean,
		}
	}
	return data
}
