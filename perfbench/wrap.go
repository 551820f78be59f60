package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// tracedSource wraps a trace.Source from outside: it counts opens and
// records read, and records one span per read from its first record to EOF.
// Its readers forward NextBatch whenever the wrapped reader has it, so the
// core keeps its batch path; a Next-only wrapper would push the core onto
// trace.ReadBatch's per-record fallback and time a different loop.
type tracedSource struct {
	trace.Source
	rec    *recorder
	parent int
	name   string
	opens  *atomic.Int64
	reads  *atomic.Int64

	mu   sync.Mutex
	live []*tracedReader // readers that have started but not reached EOF
}

func (s *tracedSource) Open() trace.Reader {
	s.opens.Add(1)
	inner := s.Source.Open()
	r := &tracedReader{src: s, inner: inner}
	if br, ok := inner.(trace.BatchReader); ok {
		return &tracedBatchReader{tracedReader: r, br: br}
	}
	return r
}

// finish closes the spans of readers abandoned before EOF (the shared
// warmup pass reads only the warm prefix) at their last activity, and
// returns how many there were.
func (s *tracedSource) finish() int {
	s.mu.Lock()
	live := s.live
	s.live = nil
	s.mu.Unlock()
	for _, r := range live {
		r.sp.endAt(r.last)
	}
	return len(live)
}

type tracedReader struct {
	src     *tracedSource
	inner   trace.Reader
	started bool
	done    bool
	sp      open
	last    time.Duration
}

func (r *tracedReader) observe(n int, err error) {
	if !r.started {
		r.started = true
		r.sp = r.src.rec.begin("read "+r.src.name, "trace", r.src.parent)
		r.src.mu.Lock()
		r.src.live = append(r.src.live, r)
		r.src.mu.Unlock()
	}
	r.src.reads.Add(int64(n))
	r.last = r.src.rec.now()
	if err != nil && !r.done {
		r.done = true
		r.sp.endAt(r.last)
		r.src.mu.Lock()
		for i, l := range r.src.live {
			if l == r {
				r.src.live = append(r.src.live[:i], r.src.live[i+1:]...)
				break
			}
		}
		r.src.mu.Unlock()
	}
}

func (r *tracedReader) Next() (isa.Branch, error) {
	b, err := r.inner.Next()
	n := 1
	if err != nil {
		n = 0
	}
	r.observe(n, err)
	return b, err
}

type tracedBatchReader struct {
	*tracedReader
	br trace.BatchReader
}

func (r *tracedBatchReader) NextBatch(buf []isa.Branch) (int, error) {
	n, err := r.br.NextBatch(buf)
	r.observe(n, err)
	return n, err
}

// sampleEvery is the sampling interval of the timing decorators: one call in
// sampleEvery is timed and recorded as a child span of the cell, so the
// decorator costs a counter increment on the other calls.
const sampleEvery = 64

// timedBTB decorates core.Config.BTB with sampled Lookup/Update timing.
type timedBTB struct {
	btb.TargetPredictor
	rec    *recorder
	parent int
	every  uint64
	n      uint64
}

func (t *timedBTB) Lookup(pc addr.VA) btb.Lookup {
	if t.n++; t.n%t.every != 0 {
		return t.TargetPredictor.Lookup(pc)
	}
	s := t.rec.now()
	l := t.TargetPredictor.Lookup(pc)
	t.rec.child(t.parent, "btb.lookup", "btb", s, t.rec.now())
	return l
}

func (t *timedBTB) Update(b isa.Branch, prior btb.Lookup) {
	if t.n++; t.n%t.every != 0 {
		t.TargetPredictor.Update(b, prior)
		return
	}
	s := t.rec.now()
	t.TargetPredictor.Update(b, prior)
	t.rec.child(t.parent, "btb.update", "btb", s, t.rec.now())
}

// timedDirection decorates core.Config.Direction with sampled timing. It
// must not be used in the suite: core.WarmupCompatible refuses a custom
// direction predictor, which would turn off warm-state sharing.
type timedDirection struct {
	predictor.Direction
	rec    *recorder
	parent int
	every  uint64
	n      uint64
}

func (t *timedDirection) Predict(pc addr.VA) bool {
	if t.n++; t.n%t.every != 0 {
		return t.Direction.Predict(pc)
	}
	s := t.rec.now()
	p := t.Direction.Predict(pc)
	t.rec.child(t.parent, "tage.predict", "predictor", s, t.rec.now())
	return p
}

func (t *timedDirection) Update(pc addr.VA, taken bool) {
	if t.n++; t.n%t.every != 0 {
		t.Direction.Update(pc, taken)
		return
	}
	s := t.rec.now()
	t.Direction.Update(pc, taken)
	t.rec.child(t.parent, "tage.update", "predictor", s, t.rec.now())
}

// recordingBTB records the branch stream the core sends the BTB, for the
// isolated Lookup+Update replay.
type recordingBTB struct {
	btb.TargetPredictor
	lookups int
	stream  []isa.Branch
}

func (r *recordingBTB) Lookup(pc addr.VA) btb.Lookup {
	r.lookups++
	return r.TargetPredictor.Lookup(pc)
}

func (r *recordingBTB) Update(b isa.Branch, prior btb.Lookup) {
	r.stream = append(r.stream, b)
	r.TargetPredictor.Update(b, prior)
}

// dirOp is one conditional branch as the direction predictor saw it.
type dirOp struct {
	pc    addr.VA
	taken bool
}

// recordingDirection records the conditional-branch stream the core sends
// the direction predictor.
type recordingDirection struct {
	predictor.Direction
	predicts int
	stream   []dirOp
}

func (r *recordingDirection) Predict(pc addr.VA) bool {
	r.predicts++
	return r.Direction.Predict(pc)
}

func (r *recordingDirection) Update(pc addr.VA, taken bool) {
	r.stream = append(r.stream, dirOp{pc, taken})
	r.Direction.Update(pc, taken)
}

// pairedStreams checks that every recorded probe had exactly one training
// call, which the isolated replays assume (each op is a probe then its
// update).
func pairedStreams(b *recordingBTB, d *recordingDirection) error {
	if b.lookups != len(b.stream) {
		return fmt.Errorf("BTB saw %d lookups but %d updates", b.lookups, len(b.stream))
	}
	if d.predicts != len(d.stream) {
		return fmt.Errorf("direction predictor saw %d predictions but %d updates", d.predicts, len(d.stream))
	}
	return nil
}

// drain reads r to EOF, returning the record count.
func drain(r trace.Reader, buf []isa.Branch) (int, error) {
	total := 0
	for {
		n, err := trace.ReadBatch(r, buf)
		total += n
		if errors.Is(err, io.EOF) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
	}
}

// stampLog collects the time stamps that cut one operation into slices.
type stampLog struct {
	mu sync.Mutex
	ts []time.Time
}

func (l *stampLog) stamp() {
	t := time.Now()
	l.mu.Lock()
	l.ts = append(l.ts, t)
	l.mu.Unlock()
}

func (l *stampLog) reset() {
	l.mu.Lock()
	l.ts = l.ts[:0]
	l.mu.Unlock()
}

// slices cuts an operation that ran from start to end at the logged
// stamps into segments; the last one ends the operation.
func (l *stampLog) slices(start, end time.Time) []segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := make([]segment, 0, len(l.ts)+1)
	prev := start
	for _, t := range l.ts {
		segs = append(segs, segment{wall: t.Sub(prev)})
		prev = t
	}
	return append(segs, segment{wall: end.Sub(prev), ends: true})
}

// stampedSource wraps a trace.Source so that a pass can time the core
// between its batch reads: each NextBatch call is stamped before it is
// forwarded. Readers without NextBatch are returned unwrapped, so the core
// keeps whichever read path it had.
type stampedSource struct {
	trace.Source
	log *stampLog
}

func (s stampedSource) Open() trace.Reader {
	r := s.Source.Open()
	if br, ok := r.(trace.BatchReader); ok {
		return stampedReader{BatchReader: br, log: s.log}
	}
	return r
}

type stampedReader struct {
	trace.BatchReader
	log *stampLog
}

func (r stampedReader) NextBatch(buf []isa.Branch) (int, error) {
	r.log.stamp()
	return r.BatchReader.NextBatch(buf)
}
