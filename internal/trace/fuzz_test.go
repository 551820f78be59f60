package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/rng"
)

// FuzzDecoder drives NewDecoder/Decoder.Next with arbitrary bytes: the
// decoder must never panic, and every non-EOF failure must carry a
// descriptive message. Seeds cover a fully valid encoding, truncations of
// it, header-only inputs and the random-tail corpus style of
// robustness_test.go.
func FuzzDecoder(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, "sample", sampleTrace().Open()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1]) // missing trailer
	f.Add(valid.Bytes()[:7])             // cut inside the header
	f.Add([]byte{})
	f.Add([]byte("PDT1"))
	f.Add([]byte("PDT1\x01x\xff"))             // empty named stream
	f.Add([]byte("PDT1\x01x\x02\x05\x80\x80")) // record cut mid-varint
	f.Add([]byte("QQT1\x01x\xff"))             // bad magic
	r := rng.New(99)
	for i := 0; i < 8; i++ {
		seed := []byte("PDT1\x01x")
		n := r.Intn(64)
		for j := 0; j < n; j++ {
			seed = append(seed, byte(r.Uint32()))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Error("NewDecoder returned an empty error")
			}
			return
		}
		for {
			_, err := dec.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				if err.Error() == "" {
					t.Error("Next returned an empty error")
				}
				dec.Next() // calling again after an error must not crash
				return
			}
		}
	})
}

// FuzzPdtzRoundTrip drives the v2 container with arbitrary bytes. Parsing
// and decoding must never panic and must fail with positioned messages; any
// input that parses AND decodes cleanly must survive a decode -> re-encode
// -> re-decode round trip with an identical record stream. Seeds cover
// valid encodings at several sizes plus the corruption styles the decoder's
// fault paths guard against.
func FuzzPdtzRoundTrip(f *testing.F) {
	for _, n := range []int{0, 1, 700, 5000} {
		var valid bytes.Buffer
		if err := WritePdtz(&valid, "seed", makeTrace(n).Open()); err != nil {
			f.Fatal(err)
		}
		f.Add(valid.Bytes())
		f.Add(valid.Bytes()[:valid.Len()-1])          // missing footer byte
		f.Add(valid.Bytes()[:valid.Len()/2])          // cut mid-payload
		f.Add(append([]byte{}, valid.Bytes()[4:]...)) // magic stripped
	}
	f.Add([]byte("PDTZ"))
	f.Add([]byte("PDTZ\x02\x04seedZEND"))
	r := rng.New(7)
	for i := 0; i < 8; i++ {
		seed := []byte("PDTZ\x02\x01x")
		n := r.Intn(96)
		for j := 0; j < n; j++ {
			seed = append(seed, byte(r.Uint32()))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		z, err := ParsePdtz(data)
		if err != nil {
			if err.Error() == "" {
				t.Error("ParsePdtz returned an empty error")
			}
			return
		}
		// Decode everything. Corrupt payloads must fail with a message;
		// a failed batch must not crash subsequent calls.
		var recs []isa.Branch
		br := z.Open().(*BlockReader)
		buf := make([]isa.Branch, 512)
		for {
			n, err := br.NextBatch(buf)
			recs = append(recs, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				if err.Error() == "" {
					t.Error("NextBatch returned an empty error")
				}
				br.NextBatch(buf) // must not panic after an error
				return
			}
		}
		// Clean decode: re-encode and re-decode must reproduce the stream.
		var again bytes.Buffer
		if err := WritePdtz(&again, z.Name(), z.Open()); err != nil {
			t.Fatalf("re-encode of a cleanly decoded trace failed: %v", err)
		}
		z2, err := ParsePdtz(again.Bytes())
		if err != nil {
			t.Fatalf("re-parse of a re-encoded trace failed: %v", err)
		}
		m2, err := Collect("x", z2.Open())
		if err != nil {
			t.Fatalf("re-decode of a re-encoded trace failed: %v", err)
		}
		if len(m2.Records) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(m2.Records))
		}
		for i := range recs {
			if m2.Records[i] != recs[i] {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, recs[i], m2.Records[i])
			}
		}
	})
}

// refDecoder is a byte-at-a-time PDT1 decoder: every field is read through
// an io.ByteReader with binary.ReadUvarint/ReadVarint, the stream offset
// counted byte by byte. It is the reference FuzzDecoderDifferential holds
// Decoder to — same records, same errors — and is deliberately kept
// independent of record.go.
type refDecoder struct {
	br     *bufio.Reader
	off    int64
	name   string
	prevPC addr.VA
	rec    int64
	done   bool
}

func (d *refDecoder) ReadByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

func (d *refDecoder) readFull(p []byte) error {
	n, err := io.ReadFull(d.br, p)
	d.off += int64(n)
	return err
}

func newRefDecoder(r io.Reader) (*refDecoder, error) {
	d := &refDecoder{br: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	if err := d.readFull(head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	nameLen, err := binary.ReadUvarint(d)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if err := d.readFull(name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	d.name = string(name)
	return d, nil
}

func (d *refDecoder) fail(field string, err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: record %d at byte offset %d: %s: %w", d.rec, d.off, field, err)
}

func (d *refDecoder) Next() (isa.Branch, error) {
	if d.done {
		return isa.Branch{}, io.EOF
	}
	flags, err := d.ReadByte()
	if err != nil {
		return isa.Branch{}, d.fail("truncated stream", err)
	}
	if flags == 0xFF {
		d.done = true
		return isa.Branch{}, io.EOF
	}
	kind := isa.Kind(flags >> 1)
	if kind >= isa.NumKinds {
		return isa.Branch{}, d.fail("invalid kind", fmt.Errorf("kind %d", kind))
	}
	blockLen, err := binary.ReadUvarint(d)
	if err != nil {
		return isa.Branch{}, d.fail("reading block length", err)
	}
	if blockLen == 0 || blockLen > isa.MaxBlockLen {
		return isa.Branch{}, d.fail("invalid block length", fmt.Errorf("length %d", blockLen))
	}
	pcDelta, err := binary.ReadVarint(d)
	if err != nil {
		return isa.Branch{}, d.fail("reading pc delta", err)
	}
	targetDelta, err := binary.ReadVarint(d)
	if err != nil {
		return isa.Branch{}, d.fail("reading target delta", err)
	}
	pc := addr.New(uint64(int64(d.prevPC) + pcDelta))
	d.prevPC = pc
	d.rec++
	return isa.Branch{
		PC:       pc,
		Target:   addr.New(uint64(int64(pc) + targetDelta)),
		BlockLen: uint16(blockLen),
		Kind:     kind,
		Taken:    flags&1 != 0,
	}, nil
}

// sameErr reports whether two errors read the same and agree on
// truncation.
func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || (a.Error() == b.Error() &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF) &&
		errors.Is(a, io.EOF) == errors.Is(b, io.EOF))
}

// FuzzDecoderDifferential holds Decoder to refDecoder on arbitrary bytes,
// through all three ways a Decoder gets its bytes: in place
// (NewBytesDecoder), through the window from a whole-buffer reader, and
// through the window from a reader that yields one byte per Read (so every
// record straddles refills). Each must yield the reference's records and
// then its error, text included (field, record index, byte offset), with
// the same io.ErrUnexpectedEOF classification; header errors likewise.
// Batch sizes vary with the input so NextBatch's refill and tail paths
// meet records at every phase.
func FuzzDecoderDifferential(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, "sample", makeTrace(300).Open()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add(append(append([]byte{}, valid.Bytes()...), "trailing"...))
	f.Add([]byte{})
	f.Add([]byte("PDT"))
	f.Add([]byte("PDT1"))
	f.Add([]byte("PDT1\x80"))
	f.Add([]byte("PDT1\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Add([]byte("PDT1\x03ab"))
	f.Add([]byte("PDT1\x01x\xff"))
	f.Add([]byte("PDT1\x01x\x02\x05\x80\x80"))
	f.Add([]byte("PDT1\x01x\x0e\x01\x00\x00\xff"))                                 // kind 7
	f.Add([]byte("PDT1\x01x\x02\x00\x00\x00\xff"))                                 // zero block length
	f.Add([]byte("PDT1\x01x\x02\x80\x80\x04\x00\x00\xff"))                         // block length 65536
	f.Add([]byte("PDT1\x01x\x02\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02\x00")) // pc delta overflow
	f.Add([]byte("PDT1\x01x\x02\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // ten continuation bytes
	r := rng.New(5)
	for i := 0; i < 8; i++ {
		seed := append([]byte{}, valid.Bytes()[:40]...)
		for j := r.Intn(80); j > 0; j-- {
			seed = append(seed, byte(r.Uint32()))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := newRefDecoder(bytes.NewReader(data))
		var want []isa.Branch
		var wantErr error
		if refErr == nil {
			for {
				b, err := ref.Next()
				if err != nil {
					wantErr = err
					break
				}
				want = append(want, b)
			}
		}
		batch := 1 + len(data)%37
		for _, src := range []struct {
			name string
			open func() (*Decoder, error)
		}{
			{"bytes", func() (*Decoder, error) { return NewBytesDecoder(data) }},
			{"reader", func() (*Decoder, error) { return NewDecoder(bytes.NewReader(data)) }},
			{"one-byte-reader", func() (*Decoder, error) { return NewDecoder(iotest.OneByteReader(bytes.NewReader(data))) }},
		} {
			dec, err := src.open()
			if !sameErr(err, refErr) {
				t.Fatalf("%s: header error %v, reference %v", src.name, err, refErr)
			}
			if err != nil {
				continue
			}
			if dec.Name() != ref.name {
				t.Fatalf("%s: name %q, reference %q", src.name, dec.Name(), ref.name)
			}
			var got []isa.Branch
			buf := make([]isa.Branch, batch)
			for {
				n, err := dec.NextBatch(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					if !sameErr(err, wantErr) {
						t.Fatalf("%s: error %v, reference %v", src.name, err, wantErr)
					}
					if _, again := dec.Next(); !sameErr(again, err) {
						t.Fatalf("%s: error not sticky: %v then %v", src.name, err, again)
					}
					break
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: decoded %d records, reference %d (or they differ)", src.name, len(got), len(want))
			}
			if errors.Is(wantErr, io.EOF) && dec.Offset() != ref.off {
				t.Fatalf("%s: consumed %d bytes, reference %d", src.name, dec.Offset(), ref.off)
			}
		}
	})
}

// FuzzRecordRoundTrip drives the shared record encoder from arbitrary
// bytes, read as a record list (8-byte PC, 8-byte target, 2-byte block
// length and a kind/taken byte each, normalized to legal values). Every
// PDT1 encoder — Append, Write and EncodeStream — must produce the same
// bytes, which Decoder must decode back to the records; PDTZ, at a block
// size taken from the input, must decode back to them too.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x12, 0x34, 0, 0, 0, 0, 0, 0, 0x40, 0x34, 0, 0, 0, 0, 0, 0, 3, 0, 5}, 3))
	f.Add(bytes.Repeat([]byte{0xff}, 19*5))
	r := rng.New(11)
	for i := 0; i < 4; i++ {
		seed := make([]byte, 19*(1+r.Intn(40)))
		for j := range seed {
			seed[j] = byte(r.Uint32())
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []isa.Branch
		for ; len(data) >= 19; data = data[19:] {
			kind := isa.Kind(data[18]>>1) % isa.NumKinds
			recs = append(recs, isa.Branch{
				PC:       addr.New(binary.LittleEndian.Uint64(data)),
				Target:   addr.New(binary.LittleEndian.Uint64(data[8:])),
				BlockLen: max(1, binary.LittleEndian.Uint16(data[16:])),
				Kind:     kind,
				Taken:    data[18]&1 != 0,
			})
		}
		m := &Memory{TraceName: "fuzz", Records: recs}
		enc := Append(nil, m.TraceName, recs)
		var written bytes.Buffer
		if err := Write(&written, m.TraceName, m.Open()); err != nil {
			t.Fatal(err)
		}
		streamed, err := io.ReadAll(EncodeStream(m.TraceName, m.Open()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written.Bytes(), enc) || !bytes.Equal(streamed, enc) {
			t.Fatal("Append, Write and EncodeStream encodings differ")
		}
		dec, err := NewBytesDecoder(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect("x", dec)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Records, recs) || dec.Offset() != int64(len(enc)) {
			t.Fatal("PDT1 round trip changed the records")
		}

		var z bytes.Buffer
		if err := WritePdtzBlocks(&z, m.TraceName, m.Open(), 1+len(recs)%5); err != nil {
			t.Fatal(err)
		}
		zt, err := ParsePdtz(z.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		zgot, err := Collect("x", zt.Open())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(zgot.Records, recs) {
			t.Fatal("PDTZ round trip changed the records")
		}
	})
}
