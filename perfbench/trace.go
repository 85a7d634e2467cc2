package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer's public
// function. Times are offsets from the tracer's start.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"` // 0 for a root span
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory; they are written out once the run
// ends. A nil *tracer records nothing, so the untraced run pays only a
// nil check per call.
type tracer struct {
	run   string
	t0    time.Time
	spans []Span
	open  []int // indices into spans of the currently open spans
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

var noopEnd = func() {}

// begin opens a span named name under the innermost open span and
// returns the function that closes it. Spans must close in LIFO order;
// the benchmark is a single caller, so they always do.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return noopEnd
	}
	var parent uint64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: uint64(idx + 1), Parent: parent, Run: t.run, Name: name,
		Start: time.Since(t.t0),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children count
// once; child time outside the parent's interval is ignored.
func selfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - curStart
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	secs := make(map[string]float64)
	for _, s := range spans {
		secs[s.Name] += self[s.ID].Seconds()
	}
	return secs
}

// writeSpans writes the manifest and then one JSON span per line.
func writeSpans(path string, manifest any, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"manifest": manifest}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
