package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share a trace ID; parent is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: every method is a no-op that neither allocates nor
// records.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// token identifies an open span; the zero token belongs to the nil
// recorder.
type token struct {
	trace, id, parent uint64
	name              string
	start             int64
}

// begin opens a span. A zero trace starts a new trace with this span as its
// root.
func (r *recorder) begin(trace, parent uint64, name string) token {
	if r == nil {
		return token{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	if trace == 0 {
		trace = id
	}
	return token{trace: trace, id: id, parent: parent, name: name, start: int64(time.Since(r.epoch))}
}

// end closes the span opened as t.
func (r *recorder) end(t token) {
	if r == nil {
		return
	}
	s := span{Trace: t.trace, ID: t.id, Parent: t.parent, Name: t.name, Start: t.start, End: int64(time.Since(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// len reports the number of recorded spans.
func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are merged
// first, so concurrent children are not subtracted twice, and a child
// reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName groups self times, in microseconds, by span name.
func (r *recorder) selfByName() map[string][]float64 {
	out := make(map[string][]float64)
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e3)
	}
	return out
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
