package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call the benchmark made into a layer,
// or an interval the service reported for a job (queue wait, run).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Campaign string `json:"campaign,omitempty"`
	StartUs  int64  `json:"start_us"` // since the trace epoch
	EndUs    int64  `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUs-s.StartUs) * time.Microsecond }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so the untraced path costs one nil check per
// call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records [start, end) under parent and returns the new span's ID
// (0 on a nil tracer, which is also the root parent ID).
func (t *tracer) add(name string, parent int, campaign string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Campaign: campaign,
		StartUs: start.Sub(t.epoch).Microseconds(),
		EndUs:   end.Sub(t.epoch).Microseconds(),
	})
	return id
}

// finish sets span id's end to now (for spans opened before their
// children are known).
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUs = time.Since(t.epoch).Microseconds()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{t.epoch.UTC().Format(time.RFC3339Nano), t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover (children
// are clipped to the parent; overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartUs, parent.StartUs), min(k.EndUs, parent.EndUs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.StartUs
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total) * time.Microsecond
}
