package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/isa"
)

func sampleTrace() *Memory {
	return &Memory{
		TraceName: "sample",
		Records: []isa.Branch{
			{PC: addr.Build(1, 2, 0x100), Target: addr.Build(1, 2, 0x40), BlockLen: 5, Kind: isa.CondDirect, Taken: true},
			{PC: addr.Build(1, 2, 0x44), Target: addr.Build(2, 0, 0x10), BlockLen: 2, Kind: isa.DirectCall, Taken: true},
			{PC: addr.Build(2, 0, 0x20), Target: addr.Build(1, 2, 0x48), BlockLen: 5, Kind: isa.Return, Taken: true},
			{PC: addr.Build(1, 2, 0x60), Target: addr.Build(1, 2, 0x100), BlockLen: 7, Kind: isa.CondDirect, Taken: false},
		},
	}
}

func TestMemoryReplay(t *testing.T) {
	m := sampleTrace()
	r1, _ := Collect("a", m.Open())
	r2, _ := Collect("b", m.Open())
	if !reflect.DeepEqual(r1.Records, r2.Records) {
		t.Error("two reads of a Memory source differ")
	}
	if !reflect.DeepEqual(r1.Records, m.Records) {
		t.Error("collected records differ from source")
	}
}

func TestInstructions(t *testing.T) {
	if got := sampleTrace().Instructions(); got != 19 {
		t.Errorf("Instructions = %d, want 19", got)
	}
}

func TestLimit(t *testing.T) {
	m := sampleTrace()
	lim := &Limit{R: m.Open(), MaxInstrs: 7}
	got, err := Collect("lim", lim)
	if err != nil {
		t.Fatal(err)
	}
	// 5 instrs, then 2 → reaches 7 exactly at record 2; record 3 excluded.
	if len(got.Records) != 2 {
		t.Fatalf("Limit kept %d records, want 2", len(got.Records))
	}
	// Zero means unlimited.
	all, _ := Collect("all", &Limit{R: m.Open()})
	if len(all.Records) != 4 {
		t.Errorf("unlimited Limit kept %d records", len(all.Records))
	}
}

func TestSkip(t *testing.T) {
	m := sampleTrace()
	sk := &Skip{R: m.Open(), SkipInstrs: 6}
	got, err := Collect("skip", sk)
	if err != nil {
		t.Fatal(err)
	}
	// Records 0 (5 instrs) and 1 (2 instrs) cover the 6-instr warmup.
	if len(got.Records) != 2 || got.Records[0] != m.Records[2] {
		t.Fatalf("Skip yielded %d records starting %+v", len(got.Records), got.Records[0])
	}
	// Zero skip passes everything through.
	all, _ := Collect("all", &Skip{R: m.Open()})
	if len(all.Records) != 4 {
		t.Errorf("zero Skip kept %d records", len(all.Records))
	}
}

func TestSkipPastEnd(t *testing.T) {
	m := sampleTrace()
	sk := &Skip{R: m.Open(), SkipInstrs: 1000}
	if _, err := sk.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Skip past end: err = %v, want EOF", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name() != "sample" {
		t.Errorf("decoded name = %q", dec.Name())
	}
	got, err := Collect(dec.Name(), dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, m.Records) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got.Records, m.Records)
	}
}

// Property: the codec round-trips arbitrary well-formed records.
func TestCodecRoundTripQuick(t *testing.T) {
	f := func(raws []struct {
		PC, Target uint64
		BlockLen   uint16
		Kind       uint8
		Taken      bool
	}) bool {
		recs := make([]isa.Branch, 0, len(raws))
		for _, r := range raws {
			k := isa.Kind(r.Kind % isa.NumKinds)
			taken := r.Taken || !k.IsConditional()
			bl := r.BlockLen
			if bl == 0 {
				bl = 1
			}
			recs = append(recs, isa.Branch{
				PC:       addr.New(r.PC),
				Target:   addr.New(r.Target),
				BlockLen: bl,
				Kind:     k,
				Taken:    taken,
			})
		}
		m := &Memory{TraceName: "q", Records: recs}
		var buf bytes.Buffer
		if err := Write(&buf, m.TraceName, m.Open()); err != nil {
			return false
		}
		dec, err := NewDecoder(&buf)
		if err != nil {
			return false
		}
		got, err := Collect("q", dec)
		if err != nil {
			return false
		}
		if len(got.Records) != len(recs) {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("NOPE....."))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewDecoder(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestDecoderTruncated(t *testing.T) {
	m := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	dec, err := NewDecoder(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := dec.Next()
		if errors.Is(err, io.EOF) {
			t.Fatal("truncated stream reached clean EOF")
		}
		if err != nil {
			return // got a decode error, as desired
		}
	}
}

func TestCompactEncoding(t *testing.T) {
	// A hot loop should encode in only a few bytes per record.
	recs := make([]isa.Branch, 1000)
	pc := addr.Build(1, 1, 0x80)
	for i := range recs {
		recs[i] = isa.Branch{PC: pc, Target: pc.Add(^uint64(63)), BlockLen: 8, Kind: isa.CondDirect, Taken: true}
	}
	m := &Memory{TraceName: "loop", Records: recs}
	var buf bytes.Buffer
	if err := Write(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(len(recs))
	if perRecord > 16 {
		t.Errorf("loop trace uses %.1f bytes/record, want ≤ 16", perRecord)
	}
}

// EncodeStream must hand out each record as its source yields it: one Read
// for the header, one per record, so a source that stalls or fails does so
// partway through the stream rather than before its first byte. A failing
// source cuts the stream after the records before it, with the source's
// error.
func TestEncodeStreamPacesRecords(t *testing.T) {
	m := makeTrace(50)
	s := EncodeStream(m.TraceName, &FaultReader{R: m.Open(), Plan: FaultPlan{TruncateAt: 20}})
	buf := make([]byte, 4096)
	var got []byte
	reads := 0
	var err error
	for err == nil {
		var n int
		n, err = s.Read(buf)
		if n > 0 {
			reads++
			got = append(got, buf[:n]...)
		}
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "record 19") {
		t.Fatalf("stream ended with %v, want the source's truncation at record 19", err)
	}
	want := Append(nil, m.TraceName, m.Records[:19])
	want = want[:len(want)-1] // no trailer: the stream was cut
	if !bytes.Equal(got, want) {
		t.Fatalf("stream carried %d bytes before the cut, want the %d encoding the first 19 records", len(got), len(want))
	}
	if reads != 1+19 {
		t.Fatalf("%d non-empty reads, want one for the header and one per record (20)", reads)
	}
}
