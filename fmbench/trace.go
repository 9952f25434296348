package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request or interval
// share req; parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span ID, for a parent whose children finish first.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// add stores a finished span under a fresh ID and returns the ID.
func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, parent, req, name, start, end)
	return id
}

// time runs fn inside a span.
func (t *tracer) time(parent, req int64, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.add(parent, req, name, start, time.Now())
	return err
}

// durations returns the duration in ms of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, in ns, keyed by span ID.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// report prints, for each root span name, every layer under it with its
// span count, median self time, and share of the roots' total time (the
// blocking path: children run inside their parent's interval).
func (t *tracer) report(w io.Writer, roots ...string) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	for _, root := range roots {
		var total int64
		layer := map[string][]float64{}
		for _, s := range spans {
			r := rootOf(s)
			if r.Name != root {
				continue
			}
			if s.ID == r.ID {
				total += s.End - s.Start
			}
			layer[s.Name] = append(layer[s.Name], float64(self[s.ID]))
		}
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "self time under %q (%d roots, %.1f ms total):\n", root, len(layer[root]), float64(total)/1e6)
		names := make([]string, 0, len(layer))
		for n := range layer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := layer[n]
			var sum float64
			for _, x := range xs {
				sum += x
			}
			fmt.Fprintf(w, "  %-24s n=%-6d self p50 %9.3f ms  share %5.1f%%\n", n, len(xs), median(append([]float64(nil), xs...))/1e6, 100*sum/float64(total))
		}
	}
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
