package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// interval is a span of host time, as offsets from a tracer's epoch.
type interval struct {
	start, end time.Duration
}

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// span is one recorded call across a layer boundary: the benchmark wraps
// its own calls into a layer's public functions, so a span says which
// layer ran, on which worker, and inside which enclosing span.
type span struct {
	Name   string        `json:"name"`
	Worker int           `json:"worker"`
	Parent int           `json:"parent"` // index into the span list; -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps the spans of a traced run in memory. Workers record
// concurrently, so every access takes the mutex; a pass records a few
// hundred spans, so the lock is never the bottleneck being measured.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, worker, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Worker: worker, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// reserve records a span whose end is not known yet, so children can
// name it as their parent; finish closes it.
func (t *tracer) reserve(name string, parent int) int {
	return t.add(name, 0, parent, t.now(), 0)
}

func (t *tracer) finish(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// children returns the intervals of the spans named name whose parent
// is p.
func (t *tracer) children(p int, name string) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	for _, s := range t.spans {
		if s.Parent == p && s.Name == name {
			out = append(out, s.interval())
		}
	}
	return out
}

// under returns the intervals of the spans named name that descend
// from span root.
func (t *tracer) under(root int, name string) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if p == root {
				out = append(out, s.interval())
				break
			}
		}
	}
	return out
}

func (t *tracer) span(i int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i]
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// busyShare is the fraction of the available worker time spent inside
// units: the sum of the unit durations over workers × wall. A
// dispatcher that keeps every worker busy reads 1; one that hands all
// units to a single worker reads 1/workers.
func busyShare(units []interval, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, u := range units {
		busy += u.dur()
	}
	return float64(busy) / (float64(workers) * float64(wall))
}

// selfTime is the part of parent that none of the children covers:
// the parent's duration minus the union of the children, each clipped
// to the parent.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between the closest ranks, the definition numpy and
// R's type 7 use. It returns 0 for no values.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func maxOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := values[0]
	for _, v := range values[1:] {
		m = math.Max(m, v)
	}
	return m
}

// ms converts intervals to their durations in milliseconds.
func ms(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = float64(iv.dur()) / float64(time.Millisecond)
	}
	return out
}

func sumMS(ivs []interval) float64 {
	var s float64
	for _, v := range ms(ivs) {
		s += v
	}
	return s
}

// ratio is a/b, or 0 when b is 0, so an absent layer reads 0 instead
// of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
