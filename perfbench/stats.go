package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values (0 if there are none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memCounters reads the process's cumulative heap allocation counters.
func memCounters() (bytes, objects uint64) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc, st.Mallocs
}

// ---------------------------------------------------------------------------
// Spans of the traced run

// span is one timed call at a layer boundary. Op names the cell or request
// the call served; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Op      string  `json:"op"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartUS: t.us(now)})
	return id
}

// end closes the span id; id 0 (no span) is ignored.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = t.us(now)
}

// add records a span whose bounds were measured elsewhere (the pass spans
// built from Compiled.Profile()).
func (t *tracer) add(name, op string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartUS: t.us(start), EndUS: t.us(end)})
}

// layerTime is one span name's aggregate over the run.
type layerTime struct {
	name    string
	calls   int
	totalUS float64
	selfUS  float64
}

// selfTimes aggregates the spans by name. A span's self time is its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.EndUS - s.StartUS
		lt.calls++
		lt.totalUS += dur
		lt.selfUS += dur - covered(children[s.ID], s.StartUS, s.EndUS)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfUS > out[j].selfUS })
	return out
}

// covered returns the length of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	total, cur := 0.0, lo
	for _, s := range spans {
		a, b := math.Max(s.StartUS, cur), math.Min(s.EndUS, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", lt.name, lt.calls, lt.totalUS/1000, lt.selfUS/1000)
	}
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
