package main

// In-memory span recorder for the traced run. Spans are recorded by
// this benchmark around its own calls into each layer's public
// functions; nothing inside the program is instrumented. A nil
// *tracer records nothing, so the untraced run pays one nil check.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it. Both are safe
// to call from several goroutines.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the closed spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of s's interval its direct children cover,
// counting overlapping children once.
func covered(spans []span, s span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range spans {
		if c.Parent == s.ID && c.End > 0 {
			ivs = append(ivs, iv{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi int64
	hi = s.Start
	for _, v := range ivs {
		if v.hi <= hi {
			continue
		}
		total += v.hi - max(v.lo, hi)
		hi = v.hi
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(spans []span, s span) time.Duration { return s.dur() - covered(spans, s) }

// writeSpans writes every span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
