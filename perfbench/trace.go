package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the whole
// run and are written out when it ends.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer collects spans from any goroutine. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// begin opens a span under parent and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Spans are appended in ID order, so the index is ID-1.
	t.spans[id-1].End = now
}

// record adds an already-timed span (for durations measured elsewhere,
// such as timestamps the service reports).
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// layerTime is one span name's accumulated total and self time.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the part of each span's interval that none of its children
// covers.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := make(map[string]*layerTime)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := acc[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			acc[s.Name] = lt
		}
		lt.Count++
		lt.Total += float64(s.End-s.Start) / 1e9
		lt.Self += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64 = 0, -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write dumps the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Run   string      `json:"run"`
		Self  []layerTime `json:"self"`
		Spans []span      `json:"spans"`
	}{t.run, self, t.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes lists each layer's span count, total and self time.
func (t *tracer) printSelfTimes() {
	fmt.Printf("  %-28s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, lt := range t.selfTimes() {
		fmt.Printf("  %-28s %7d %12.4f %12.4f\n", lt.Name, lt.Count, lt.Total, lt.Self)
	}
}
