package trace

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/isa"
)

// The record codec shared by both containers. PDT1 (codec.go) and PDTZ
// (pdtz.go) encode a record the same way:
//
//	byte    flags        bit0 taken, bits1-3 kind
//	uvarint blockLen
//	varint  pcDelta      (zigzag, from the previous record's PC)
//	varint  targetDelta  (zigzag, from this record's PC)
//
// and differ only in framing: PDT1 is one delta chain ended by an
// end-of-stream flags byte, PDTZ restarts the chain at every block's base
// PC. appendRecord is the one encoder; decodeRun (the fast path) and
// decodeRecord (the exact, per-field path) are the one decoder.

const (
	flagTaken = 0x01
	kindShift = 1

	// MinRecordBytes bounds an encoded record from below: the flags byte
	// plus three single-byte varints. No stream of n bytes holds more than
	// n/MinRecordBytes records.
	MinRecordBytes = 4

	// maxRecordBytes bounds an encoded record from above: the flags byte
	// plus three 10-byte varints. decodeRun decodes a record only when this
	// many bytes are left, so one bounds check covers all of its fields.
	maxRecordBytes = 1 + 3*binary.MaxVarintLen64
)

// errOverflow is the error binary.ReadUvarint gives for an encoding longer
// than 64 bits; PDT1 decode errors carry the same text.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// appendRecord appends the encoding of b, delta-coded from prev, the PC of
// the record before it in the same delta chain.
func appendRecord(dst []byte, b isa.Branch, prev addr.VA) []byte {
	flags := byte(b.Kind) << kindShift
	if b.Taken {
		flags |= flagTaken
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(b.BlockLen))
	dst = binary.AppendVarint(dst, int64(b.PC)-int64(prev))
	return binary.AppendVarint(dst, int64(b.Target)-int64(b.PC))
}

// appendRecords appends the encoding of recs, the first delta-coded from
// prev, and returns the PC the chain continues from.
func appendRecords(dst []byte, recs []isa.Branch, prev addr.VA) ([]byte, addr.VA) {
	for _, b := range recs {
		dst = appendRecord(dst, b, prev)
		prev = b.PC
	}
	return dst, prev
}

// field names the part of a record a decode failed in.
type field uint8

const (
	fieldNone          field = iota
	fieldFlags               // no bytes left for the record's flags byte
	fieldKind                // flags byte names no kind
	fieldBlockLen            // block length is not a valid varint
	fieldBlockLenRange       // block length is 0 or above isa.MaxBlockLen
	fieldPC                  // pc delta is not a valid varint
	fieldTarget              // target delta is not a valid varint
)

// decodeRun is the record decoder's fast path. It decodes records from
// p[pos:] into buf, continuing the PC delta chain from prev, and returns
// how many it decoded with the cursor and chain state after them. It stops
// at the first byte of a record it does not decode: when buf is full, when
// fewer than maxRecordBytes bytes are left (decodeRecord decodes that tail
// within exact bounds), or when the record is malformed, which fault then
// names (it is fieldNone otherwise).
//
// The decode loop — including the branchless varint fast path — must not
// allocate.
//
//pdede:noalloc
func decodeRun(p []byte, pos int, prev int64, buf []isa.Branch) (n, next int, last int64, fault field) {
	for n < len(buf) && pos+maxRecordBytes <= len(p) {
		flags := p[pos]
		kind := isa.Kind(flags >> kindShift)
		if kind >= isa.NumKinds {
			return n, pos, prev, fieldKind
		}
		// Delta varint lengths flip record to record (a near target is 1-2
		// bytes, a cross-page jump 3+), so a byte-at-a-time loop eats a
		// branch mispredict per field. The ≤3-byte case — all of them in
		// practice — decodes branchlessly from one 32-bit load: length
		// from the first clear continuation bit, payload bits gathered
		// with masks, truncated by length. Every path accepts exactly the
		// standard varint encodings.
		q := pos + 1
		blockLen := uint64(p[q])
		q++
		if blockLen > 0x7f {
			blockLen &= 0x7f
			for s := uint(7); ; s += 7 {
				if s > 63 {
					return n, pos, prev, fieldBlockLen
				}
				b := p[q]
				q++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return n, pos, prev, fieldBlockLen
					}
					blockLen |= uint64(b) << s
					break
				}
				blockLen |= uint64(b&0x7f) << s
			}
		}
		if blockLen == 0 || blockLen > isa.MaxBlockLen {
			return n, pos, prev, fieldBlockLenRange
		}
		w32 := binary.LittleEndian.Uint32(p[q:])
		var upc uint64
		if w32&0x808080 != 0x808080 {
			l := (bits.TrailingZeros32(^w32&0x808080) + 1) >> 3
			e := w32&0x7f | (w32&0x7f00)>>1 | (w32&0x7f0000)>>2
			upc = uint64(e) & (1<<(7*uint(l)) - 1)
			q += l
		} else {
			upc = uint64(w32) & 0x7f
			q++
			for s := uint(7); ; s += 7 {
				if s > 63 {
					return n, pos, prev, fieldPC
				}
				b := p[q]
				q++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return n, pos, prev, fieldPC
					}
					upc |= uint64(b) << s
					break
				}
				upc |= uint64(b&0x7f) << s
			}
		}
		w32 = binary.LittleEndian.Uint32(p[q:])
		var utd uint64
		if w32&0x808080 != 0x808080 {
			l := (bits.TrailingZeros32(^w32&0x808080) + 1) >> 3
			e := w32&0x7f | (w32&0x7f00)>>1 | (w32&0x7f0000)>>2
			utd = uint64(e) & (1<<(7*uint(l)) - 1)
			q += l
		} else {
			utd = uint64(w32) & 0x7f
			q++
			for s := uint(7); ; s += 7 {
				if s > 63 {
					return n, pos, prev, fieldTarget
				}
				b := p[q]
				q++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return n, pos, prev, fieldTarget
					}
					utd |= uint64(b) << s
					break
				}
				utd |= uint64(b&0x7f) << s
			}
		}
		pos = q
		pc := addr.New(uint64(prev + (int64(upc>>1) ^ -int64(upc&1))))
		buf[n] = isa.Branch{
			PC:       pc,
			Target:   addr.New(uint64(int64(pc) + (int64(utd>>1) ^ -int64(utd&1)))),
			BlockLen: uint16(blockLen),
			Kind:     kind,
			Taken:    flags&flagTaken != 0,
		}
		prev = int64(pc)
		n++
	}
	return n, pos, prev, fieldNone
}

// recordFault says where and why decodeRecord stopped.
type recordFault struct {
	field field  // fieldNone when the record decoded
	at    int    // offset of the failing field's first byte
	end   int    // offset past the bytes a byte-at-a-time reader had consumed
	short bool   // the bytes ended inside the field (else its value is bad)
	value uint64 // the flags byte of a bad kind, or the bad block length
}

// decodeRecord decodes the one record at p[pos:] within exact bounds and,
// when it cannot, reports the failing field as a byte-at-a-time reader
// (binary.ReadUvarint over a stream holding exactly p) would have met it.
// It is the decoder's tail and error path; decodeRun accepts exactly the
// records it accepts.
func decodeRecord(p []byte, pos int, prev int64) (isa.Branch, int, recordFault) {
	if pos >= len(p) {
		return isa.Branch{}, pos, recordFault{field: fieldFlags, at: pos, end: pos, short: true}
	}
	flags := p[pos]
	kind := isa.Kind(flags >> kindShift)
	if kind >= isa.NumKinds {
		return isa.Branch{}, pos, recordFault{field: fieldKind, at: pos, end: pos + 1, value: uint64(flags)}
	}
	q := pos + 1
	blockLen, w, short, overflow := uvarint(p, q)
	if short || overflow {
		return isa.Branch{}, pos, recordFault{field: fieldBlockLen, at: q, end: q + w, short: short}
	}
	if blockLen == 0 || blockLen > isa.MaxBlockLen {
		return isa.Branch{}, pos, recordFault{field: fieldBlockLenRange, at: q, end: q + w, value: blockLen}
	}
	q += w
	upc, w, short, overflow := uvarint(p, q)
	if short || overflow {
		return isa.Branch{}, pos, recordFault{field: fieldPC, at: q, end: q + w, short: short}
	}
	q += w
	utd, w, short, overflow := uvarint(p, q)
	if short || overflow {
		return isa.Branch{}, pos, recordFault{field: fieldTarget, at: q, end: q + w, short: short}
	}
	q += w
	pc := addr.New(uint64(prev + (int64(upc>>1) ^ -int64(upc&1))))
	return isa.Branch{
		PC:       pc,
		Target:   addr.New(uint64(int64(pc) + (int64(utd>>1) ^ -int64(utd&1)))),
		BlockLen: uint16(blockLen),
		Kind:     kind,
		Taken:    flags&flagTaken != 0,
	}, q, recordFault{}
}

// uvarint decodes the uvarint at p[pos:] as binary.ReadUvarint would from
// a stream holding exactly p, returning the value and the bytes consumed.
// short reports that p ended inside the encoding, overflow that the
// encoding runs past 64 bits; either leaves v zero.
func uvarint(p []byte, pos int) (v uint64, n int, short, overflow bool) {
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if pos+i >= len(p) {
			return 0, i, true, false
		}
		b := p[pos+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, i + 1, false, true
			}
			return v | uint64(b)<<s, i + 1, false, false
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, binary.MaxVarintLen64, false, true
}
