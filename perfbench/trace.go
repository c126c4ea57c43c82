package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one (0 = root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// laneCap bounds the spans one goroutine keeps (about 14 MB); later spans
// are counted as dropped.
const laneCap = 1 << 18

// tracer keeps spans in memory, one lane per recording goroutine so that
// recording takes no lock, and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	id      uint64
	next    uint64
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane registers a recording goroutine. A nil tracer returns a nil lane,
// on which every method is a no-op.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{id: uint64(len(t.lanes)+1) << 40, spans: make([]span, 0, 1024)}
	t.lanes = append(t.lanes, l)
	return l
}

// since is the tracer's clock: nanoseconds since the tracer started.
func (t *tracer) since(now time.Time) int64 { return now.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its id (0 when dropped or untraced).
func (l *lane) add(name string, parent, req uint64, start, end int64) uint64 {
	if l == nil {
		return 0
	}
	if len(l.spans) == laneCap {
		l.dropped++
		return 0
	}
	l.next++
	id := l.id | l.next
	l.spans = append(l.spans, span{name, id, parent, req, start, end})
	return id
}

// durations returns the durations in ns of every kept span named name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				ds = append(ds, float64(s.End-s.Start))
			}
		}
	}
	return ds
}

// write stores every span as one JSON line, followed by a summary line,
// and returns the number of spans kept and dropped.
func (t *tracer) write(path string, header map[string]any) (kept, dropped int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return 0, 0, err
	}
	for _, l := range t.lanes {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return 0, 0, err
			}
		}
		kept += int64(len(l.spans))
		dropped += l.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("close %s: %w", path, err)
	}
	return kept, dropped, nil
}
