package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
	"repro/internal/isa"
)

// Binary trace format ("PDT1"):
//
//	header:  magic "PDT1", uvarint name length, name bytes
//	records: one record after another (record.go), a single delta chain
//	         starting from PC 0
//	trailer: flags byte 0xFF marks end of stream
//
// Delta encoding keeps hot loops to a few bytes per record: branch PCs
// revisit a small working set and targets are usually near their branch.
//
// The v2 format ("PDTZ", pdtz.go) keeps the same records but groups them
// into independently decodable blocks with a seekable index, so a mapped
// file can be sharded and decoded in place.
const magic = "PDT1"

const (
	endOfStream = 0xFF

	// maxNameLen bounds a trace name in either container.
	maxNameLen = 1 << 16

	// writeBatch is how many records Write encodes per write to its
	// destination.
	writeBatch = 128
)

// MaxEncodedLen returns the most bytes a PDT1 stream of n records can take:
// the longest legal header, every field at its longest varint, and the
// trailer.
func MaxEncodedLen(n int) int64 {
	return int64(len(magic)+binary.MaxVarintLen64+maxNameLen) + int64(n)*maxRecordBytes + 1
}

func appendHeader(dst []byte, name string) []byte {
	dst = append(dst, magic...)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// Append appends the complete PDT1 encoding of recs — header, records and
// trailer — to dst and returns the extended slice.
func Append(dst []byte, name string, recs []isa.Branch) []byte {
	// Most records take 4-8 bytes; one up-front reservation usually covers
	// the whole batch.
	if need := len(magic) + binary.MaxVarintLen64 + len(name) + 8*len(recs) + 1; cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = appendHeader(dst, name)
	dst, _ = appendRecords(dst, recs, 0)
	return append(dst, endOfStream)
}

// Write encodes a full trace to w, pulling records from r in batches.
// Errors — from the source reader or from writes to w — are annotated with
// the 0-based record index and the bytes already written to w, so a partial
// file can be located and truncated precisely.
func Write(w io.Writer, name string, r Reader) error {
	out := appendHeader(make([]byte, 0, writeBatch*8), name)
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	off := int64(len(out))
	batch := make([]isa.Branch, writeBatch)
	var prev addr.VA
	for rec := int64(0); ; {
		n, err := ReadBatch(r, batch)
		eof := errors.Is(err, io.EOF)
		if err != nil && !eof {
			return fmt.Errorf("trace: reading record %d (flushed through byte %d) from source: %w", rec+int64(n), off, err)
		}
		out, prev = appendRecords(out[:0], batch[:n], prev)
		if eof {
			out = append(out, endOfStream)
		}
		m, err := w.Write(out)
		switch {
		case err != nil && n == 0:
			return fmt.Errorf("trace: writing end-of-stream marker at byte offset %d: %w", off, err)
		case err != nil:
			return fmt.Errorf("trace: writing records %d..%d at byte offset %d (flushed through byte %d): %w",
				rec, rec+int64(n)-1, off, off+int64(m), err)
		}
		off += int64(m)
		rec += int64(n)
		if eof {
			return nil
		}
	}
}

// EncodeStream returns a reader of the PDT1 encoding of r that encodes as
// it is read: each Read that finds nothing pending pulls one record from r,
// so every record's bytes are readable as soon as r yields it, and a stall
// or failure in r stalls or cuts the stream at that record. A source error
// other than io.EOF ends the stream with that error, annotated with the
// record index. It suits record-paced producers such as an upload whose
// source injects faults; Append and Write are the bulk encoders.
func EncodeStream(name string, r Reader) io.Reader {
	return &encodeStream{r: r, out: appendHeader(nil, name)}
}

type encodeStream struct {
	r    Reader
	out  []byte // encoded bytes; out[sent:] are not yet read
	sent int
	prev addr.VA
	rec  int64
	err  error // set once the trailer is encoded (io.EOF) or r failed
}

func (s *encodeStream) Read(p []byte) (int, error) {
	for s.sent == len(s.out) {
		if s.err != nil {
			return 0, s.err
		}
		s.out, s.sent = s.out[:0], 0
		b, err := s.r.Next()
		switch {
		case err == nil:
			s.out = appendRecord(s.out, b, s.prev)
			s.prev = b.PC
			s.rec++
		case errors.Is(err, io.EOF):
			s.out = append(s.out, endOfStream)
			s.err = io.EOF
		default:
			s.err = fmt.Errorf("trace: reading record %d from source: %w", s.rec, err)
		}
	}
	n := copy(p, s.out[s.sent:])
	s.sent += n
	return n, nil
}

// decodeWindow is how many bytes a stream Decoder buffers.
const decodeWindow = 4096

// Decoder reads the PDT1 format. It implements Reader and BatchReader.
// Records are decoded straight out of a byte window — the caller's slice
// for NewBytesDecoder, a buffer refilled from the stream for NewDecoder —
// by the same decoder that reads PDTZ blocks.
type Decoder struct {
	src    io.Reader // nil when decoding a caller's slice
	srcErr error     // how the source ended (io.EOF or a read error); nil while it may yield more
	buf    []byte    // window; buf[pos:] is not yet decoded
	pos    int
	base   int64 // stream offset of buf[0]
	name   string
	prev   int64 // previous record's PC: the delta chain state
	rec    int64 // 0-based index of the record Next will decode
	err    error // sticky: io.EOF after the trailer, or the first decode error
}

// NewDecoder validates the header and returns a Decoder positioned at the
// first record of the stream r.
func NewDecoder(r io.Reader) (*Decoder, error) {
	return (&Decoder{src: r, buf: make([]byte, 0, decodeWindow)}).header()
}

// NewBytesDecoder validates the header and returns a Decoder positioned at
// the first record of the stream held in data, which it decodes in place.
// data must not change while the Decoder is in use.
func NewBytesDecoder(data []byte) (*Decoder, error) {
	return (&Decoder{srcErr: io.EOF, buf: data}).header()
}

func (d *Decoder) header() (*Decoder, error) {
	if got := d.need(len(magic)); got < len(magic) {
		return nil, fmt.Errorf("trace: reading magic: %w", d.readErr(got))
	}
	if head := d.buf[d.pos : d.pos+len(magic)]; string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	d.pos += len(magic)
	d.need(binary.MaxVarintLen64)
	nameLen, w, short, overflow := uvarint(d.buf, d.pos)
	switch {
	case short:
		return nil, fmt.Errorf("trace: reading name length: %w", d.readErr(w))
	case overflow:
		return nil, fmt.Errorf("trace: reading name length: %w", errOverflow)
	case nameLen > maxNameLen:
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	d.pos += w
	if got := d.need(int(nameLen)); got < int(nameLen) {
		return nil, fmt.Errorf("trace: reading name: %w", d.readErr(got))
	}
	d.name = string(d.buf[d.pos : d.pos+int(nameLen)])
	d.pos += int(nameLen)
	return d, nil
}

// need buffers at least n undecoded bytes unless the source ends first,
// and returns how many are buffered, at most n.
func (d *Decoder) need(n int) int {
	if len(d.buf)-d.pos < n {
		d.fill(n)
	}
	return min(n, len(d.buf)-d.pos)
}

// fill slides the undecoded bytes to the front of the window, growing it if
// it cannot hold n, and reads the source until n are buffered or it ends.
func (d *Decoder) fill(n int) {
	if d.srcErr != nil {
		return
	}
	kept := copy(d.buf[:cap(d.buf)], d.buf[d.pos:])
	d.base += int64(d.pos)
	d.buf, d.pos = d.buf[:kept], 0
	if n > cap(d.buf) {
		d.buf = append(make([]byte, 0, n), d.buf...)
	}
	// Like bufio, give up on a source that keeps returning nothing.
	for empty := 0; len(d.buf) < n; {
		m, err := d.src.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+m]
		if err != nil {
			d.srcErr = err
			return
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			d.srcErr = io.ErrNoProgress
			return
		}
	}
}

// readErr is the error io.ReadFull or binary.ReadUvarint gives when the
// source ends after got bytes of a header field.
func (d *Decoder) readErr(got int) error {
	if got > 0 && errors.Is(d.srcErr, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return d.srcErr
}

// Name returns the trace name from the header.
func (d *Decoder) Name() string { return d.name }

// Offset returns the number of stream bytes consumed: through the trailer
// after a clean end, through the failing field after a decode error.
func (d *Decoder) Offset() int64 { return d.base + int64(d.pos) }

// Records returns how many records have been decoded so far.
func (d *Decoder) Records() int64 { return d.rec }

// unexpectedEOF converts a mid-record EOF into io.ErrUnexpectedEOF so that
// a truncated stream is never mistaken for a clean end of trace.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// recErr annotates a mid-record decode failure with the record index and
// the byte offset the stream was cut at, so a truncated upload or a corrupt
// file can be diagnosed (and resumed) precisely instead of surfacing as a
// bare unexpected-EOF. It leaves the cursor there.
func (d *Decoder) recErr(f recordFault) error {
	d.pos = f.end
	var what string
	var cause error
	switch f.field {
	case fieldFlags:
		what = "truncated stream"
	case fieldKind:
		what, cause = "invalid kind", fmt.Errorf("kind %d", f.value>>kindShift)
	case fieldBlockLen:
		what = "reading block length"
	case fieldBlockLenRange:
		what, cause = "invalid block length", fmt.Errorf("length %d", f.value)
	case fieldPC:
		what = "reading pc delta"
	case fieldTarget:
		what = "reading target delta"
	}
	switch {
	case f.short:
		cause = unexpectedEOF(d.srcErr)
	case cause == nil:
		cause = errOverflow
	}
	return fmt.Errorf("trace: record %d at byte offset %d: %s: %w", d.rec, d.Offset(), what, cause)
}

// NextBatch implements BatchReader: it decodes up to len(buf) records out
// of the window, refilling it from the stream as it drains. Decoded records
// preceding an error are returned alongside it; the error carries the
// failing record's index and byte offset (see recErr), and every later call
// returns it again. Refills and error construction are outlined (fill,
// recErr) so the body stays allocation-free.
//
//pdede:noalloc
func (d *Decoder) NextBatch(buf []isa.Branch) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	n := 0
	for n < len(buf) {
		k, pos, prev, _ := decodeRun(d.buf, d.pos, d.prev, buf[n:])
		n += k
		d.pos, d.prev, d.rec = pos, prev, d.rec+int64(k)
		if n == len(buf) {
			break
		}
		if len(d.buf)-d.pos < maxRecordBytes && d.srcErr == nil {
			d.fill(maxRecordBytes)
			continue
		}
		// The stream's last few records, the trailer, or a malformed record.
		b, next, f := decodeRecord(d.buf, d.pos, d.prev)
		switch {
		case f.field == fieldKind && f.value == endOfStream:
			d.pos = f.end
			d.err = io.EOF
			return n, d.err
		case f.field != fieldNone:
			d.err = d.recErr(f)
			return n, d.err
		}
		buf[n] = b
		n++
		d.pos, d.prev, d.rec = next, int64(b.PC), d.rec+1
	}
	return n, nil
}

// Next implements Reader through NextBatch's decoder; the one-record
// buffer stays on the stack.
//
//pdede:noalloc
func (d *Decoder) Next() (isa.Branch, error) {
	var one [1]isa.Branch
	if n, err := d.NextBatch(one[:]); n == 0 {
		return isa.Branch{}, err
	}
	return one[0], nil
}
