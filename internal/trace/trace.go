// Package trace defines the dynamic control-flow trace abstraction that
// connects workload generation to the micro-architectural models, plus a
// compact binary encoding for storing traces on disk.
//
// A trace is a stream of isa.Branch records. Simulators consume traces
// through the Reader interface; anything that can replay itself from the
// beginning (a file, an in-memory trace, a deterministic generator)
// implements Source.
package trace

import (
	"errors"
	"io"

	"repro/internal/isa"
)

// Reader yields successive dynamic branch records. Next returns io.EOF when
// the trace is exhausted.
type Reader interface {
	Next() (isa.Branch, error)
}

// BatchReader is an optional Reader extension for bulk decoding: NextBatch
// fills buf with up to len(buf) records and returns how many it wrote. A
// non-nil error may accompany n > 0; callers process the n records first and
// handle the error afterwards (io.EOF means a clean end of trace). The hot
// simulation loops read through this interface to amortize per-record
// interface dispatch; ReadBatch adapts plain Readers.
type BatchReader interface {
	Reader
	NextBatch(buf []isa.Branch) (n int, err error)
}

// ReadBatch fills buf from r, taking the BatchReader fast path when r
// provides one and falling back to a Next loop otherwise. The error contract
// matches BatchReader.NextBatch: records before the error are returned with
// it, and io.EOF marks a clean end of trace.
func ReadBatch(r Reader, buf []isa.Branch) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.NextBatch(buf)
	}
	for i := range buf {
		b, err := r.Next()
		if err != nil {
			return i, err
		}
		buf[i] = b
	}
	return len(buf), nil
}

// Source produces fresh Readers over the same underlying trace. Simulation
// methodology replays each application once per configuration, so sources
// must be replayable and two Readers from one Source must yield identical
// streams.
type Source interface {
	// Name identifies the trace (application name, file path, ...).
	Name() string
	// Open starts a fresh read of the trace from the beginning.
	Open() Reader
}

// Memory is an in-memory trace. It implements Source.
type Memory struct {
	TraceName string
	Records   []isa.Branch
}

// Name implements Source.
func (m *Memory) Name() string { return m.TraceName }

// Open implements Source.
func (m *Memory) Open() Reader { return &memReader{records: m.Records} }

// Instructions returns the total instruction count of the trace.
func (m *Memory) Instructions() uint64 {
	var n uint64
	for _, b := range m.Records {
		n += uint64(b.BlockLen)
	}
	return n
}

type memReader struct {
	records []isa.Branch
	pos     int
}

func (r *memReader) Next() (isa.Branch, error) {
	if r.pos >= len(r.records) {
		return isa.Branch{}, io.EOF
	}
	b := r.records[r.pos]
	r.pos++
	return b, nil
}

// NextBatch implements BatchReader: a block copy out of the backing slice.
func (r *memReader) NextBatch(buf []isa.Branch) (int, error) {
	n := copy(buf, r.records[r.pos:])
	r.pos += n
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Collect drains a Reader into memory, decoding in batches straight into
// the growing record slice. It stops at io.EOF and propagates any other
// error.
func Collect(name string, r Reader) (*Memory, error) {
	var recs []isa.Branch
	for {
		if len(recs) == cap(recs) {
			grown := make([]isa.Branch, len(recs), max(256, 2*len(recs)))
			copy(grown, recs)
			recs = grown
		}
		n, err := ReadBatch(r, recs[len(recs):cap(recs)])
		recs = recs[:len(recs)+n]
		if errors.Is(err, io.EOF) {
			if len(recs) == 0 {
				recs = nil
			}
			return &Memory{TraceName: name, Records: recs}, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Limit wraps a Reader, ending the stream after the record that crosses
// maxInstrs total instructions. A zero maxInstrs means no limit.
type Limit struct {
	R         Reader
	MaxInstrs uint64

	seen uint64
	done bool
}

// Next implements Reader.
func (l *Limit) Next() (isa.Branch, error) {
	if l.done {
		return isa.Branch{}, io.EOF
	}
	b, err := l.R.Next()
	if err != nil {
		return isa.Branch{}, err
	}
	l.seen += uint64(b.BlockLen)
	if l.MaxInstrs != 0 && l.seen >= l.MaxInstrs {
		l.done = true
	}
	return b, nil
}

// Skip discards records until skipInstrs instructions have passed, then
// yields the rest. It models the warmup window: the caller typically runs
// structures over the skipped prefix separately.
type Skip struct {
	R          Reader
	SkipInstrs uint64

	skipped bool
}

// Next implements Reader.
func (s *Skip) Next() (isa.Branch, error) {
	if !s.skipped {
		var seen uint64
		for seen < s.SkipInstrs {
			b, err := s.R.Next()
			if err != nil {
				return isa.Branch{}, err
			}
			seen += uint64(b.BlockLen)
		}
		s.skipped = true
	}
	return s.R.Next()
}
