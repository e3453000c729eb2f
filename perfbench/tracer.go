package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one HTTP
// request share Req.
type Span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	Req     int64   `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// Tracer keeps spans in memory until the run writes them out.
type Tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	all  []Span
}

// NewTracer starts a trace clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewID reserves a span id.
func (t *Tracer) NewID() int64 { return t.next.Add(1) }

// Record stores a finished span.
func (t *Tracer) Record(id, parent int64, name string, req int64, start, end time.Time) {
	s := Span{ID: id, Parent: parent, Name: name, Req: req,
		StartUS: float64(start.Sub(t.t0)) / 1e3, EndUS: float64(end.Sub(t.t0)) / 1e3}
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// Time runs f inside a new span and returns the span's duration. f
// receives the span's id to parent its own spans.
func (t *Tracer) Time(parent int64, name string, f func(id int64)) time.Duration {
	id := t.NewID()
	start := time.Now()
	f(id)
	end := time.Now()
	t.Record(id, parent, name, 0, start, end)
	return end.Sub(start)
}

// SelfRow is one span name's totals.
type SelfRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// SelfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part of it that child spans cover.
// Overlapping children, such as concurrent requests, count once.
func (t *Tracer) SelfTimes() []SelfRow {
	t.mu.Lock()
	spans := append([]Span(nil), t.all...)
	t.mu.Unlock()
	children := map[int64][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	rows := map[string]*SelfRow{}
	for _, s := range spans {
		covered := 0.0
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		end := s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, end), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &SelfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += (s.EndUS - s.StartUS) / 1e3
		r.SelfMS += (s.EndUS - s.StartUS - covered) / 1e3
	}
	out := make([]SelfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spansNamedPrefix returns the spans whose name starts with prefix.
func (t *Tracer) spansNamedPrefix(prefix string) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.all {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// Len is the number of spans recorded.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.all)
}

// WriteFile writes the spans as JSON lines, in start order.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.all...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
