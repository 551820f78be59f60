package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's own code around
// a call into a layer. Times are offsets from the recorder's start.
type span struct {
	Name   string
	Cat    string
	ID     int
	Parent int // 0 = root
	Lane   int // display row in the trace viewer
	Start  time.Duration
	End    time.Duration
	owns   bool // the span holds its lane while open
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing off: every method is a no-op and hands out span id 0.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	busy  []bool // busy[lane] while an open span holds it
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.t0)
}

// open is a span that has begun and not yet ended.
type open struct {
	r   *recorder
	idx int
}

// begin starts a span on the lowest free lane.
func (r *recorder) begin(name, cat string, parent int) open {
	if r == nil {
		return open{}
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := 0
	for lane < len(r.busy) && r.busy[lane] {
		lane++
	}
	if lane == len(r.busy) {
		r.busy = append(r.busy, false)
	}
	r.busy[lane] = true
	r.spans = append(r.spans, span{Name: name, Cat: cat, ID: len(r.spans) + 1, Parent: parent, Lane: lane, Start: start, End: -1, owns: true})
	return open{r: r, idx: len(r.spans) - 1}
}

// nest starts a span inside parent, on parent's lane: for a child that
// runs on the parent's goroutine while the parent is open.
func (r *recorder) nest(parent open, name, cat string) open {
	if r == nil {
		return open{}
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := r.spans[parent.idx].Lane
	r.spans = append(r.spans, span{Name: name, Cat: cat, ID: len(r.spans) + 1, Parent: parent.id(), Lane: lane, Start: start, End: -1})
	return open{r: r, idx: len(r.spans) - 1}
}

// id is the span's identifier, for children to name as their parent.
func (o open) id() int {
	if o.r == nil {
		return 0
	}
	return o.idx + 1
}

// end closes the span now.
func (o open) end() { o.endAt(o.r.now()) }

// endAt closes the span at t (a reader's last activity, say).
func (o open) endAt(t time.Duration) {
	if o.r == nil {
		return
	}
	o.r.mu.Lock()
	defer o.r.mu.Unlock()
	s := &o.r.spans[o.idx]
	if s.End >= 0 {
		return
	}
	s.End = t
	if s.owns {
		o.r.busy[s.Lane] = false
	}
}

// child records a finished span nested in parent's lane.
func (r *recorder) child(parent int, name, cat string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := 0
	if parent > 0 {
		lane = r.spans[parent-1].Lane
	}
	r.spans = append(r.spans, span{Name: name, Cat: cat, ID: len(r.spans) + 1, Parent: parent, Lane: lane, Start: start, End: end})
}

// finished returns a copy of every closed span.
func (r *recorder) finished() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the given intervals
// covers. Overlapping children count once; parts outside [lo, hi) not at all.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	iv := make([]span, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, lo), min(k.End, hi)
		if e > s {
			iv = append(iv, span{Start: s, End: e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, curS, curE time.Duration
	curE = -1
	for _, k := range iv {
		if k.Start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = k.Start, k.End
			continue
		}
		curE = max(curE, k.End)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children recorded 1-in-every are scaled back up by every.
func selfTime(parent span, kids []span, every int) time.Duration {
	return parent.End - parent.Start - time.Duration(every)*covered(parent.Start, parent.End, kids)
}

// clockCost is what timing an empty interval reads: the part of a sampled
// span that is the clock's own cost, not the timed call's.
func clockCost(r *recorder) time.Duration {
	ds := make([]float64, 1000)
	for i := range ds {
		s := r.now()
		ds[i] = float64(r.now() - s)
	}
	return time.Duration(median(ds))
}

// trimmed returns spans with d taken off each one's end (not below its
// start), removing the clock's cost from sampled call spans.
func trimmed(spans []span, d time.Duration) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.End = max(s.Start, s.End-d)
		out[i] = s
	}
	return out
}

// childrenOf indexes spans by parent id.
func childrenOf(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "otherData": meta})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
