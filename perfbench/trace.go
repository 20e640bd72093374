package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Parent is the ID
// of the span that caused it (0 for a root); every span of one run
// shares Run.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Run    string         `json:"run"`
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	End    time.Time      `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	closed bool
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps a run's spans in memory until write. The zero of
// *recorder (nil) records nothing, so untraced code paths can share
// the calls.
type recorder struct {
	run   string
	mu    sync.Mutex
	spans []*span
}

func newRecorder(run string) *recorder { return &recorder{run: run} }

// begin opens a span under parent (0 = root) and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	return r.add(name, parent, time.Now(), time.Time{})
}

// add records a span from externally measured times; a zero end leaves
// it open for finish.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: start, End: end, closed: !end.IsZero()}
	r.spans = append(r.spans, s)
	return s.ID
}

// finish closes span id now.
func (r *recorder) finish(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	s.End, s.closed = now, true
}

// attr attaches a key/value to span id.
func (r *recorder) attr(id int, key string, v any) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = v
}

// selfTimes sums, per span name, each span's self time (its duration
// minus its children's, which never overlap) over the subtree under
// root.
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration)
	inTree := map[int]bool{root: true}
	for _, s := range r.spans[root-1:] { // children follow their parent
		if !inTree[s.ID] && !inTree[s.Parent] {
			continue
		}
		inTree[s.ID] = true
		out[s.Name] += s.dur()
		if s.ID != root {
			out[r.spans[s.Parent-1].Name] -= s.dur()
		}
	}
	return out
}

// write stores every span, plus extra run-level data, as one JSON
// document.
func (r *recorder) write(path string, extra map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if !s.closed {
			return fmt.Errorf("trace: span %q (%d) never finished", s.Name, s.ID)
		}
	}
	data, err := json.MarshalIndent(map[string]any{"run": r.run, "spans": r.spans, "extra": extra}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
