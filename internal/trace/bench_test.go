package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/isa"
)

// benchTrace is the shared decode workload: a loop-heavy trace with the
// delta distribution the synthetic apps produce (small forward PC strides,
// near targets, occasional wide jumps via makeTrace's RNG).
func benchTrace(b *testing.B, n int) *Memory {
	b.Helper()
	return makeTrace(n)
}

// BenchmarkDecode compares the two containers on the same records. The
// metric that matters is records/sec (reported as rec/s). Both run the
// shared record decoder: v1 over a window refilled from an io.Reader, v2
// straight out of one flat byte slice.
func BenchmarkDecode(b *testing.B) {
	const records = 200_000
	m := benchTrace(b, records)

	var v1 bytes.Buffer
	if err := Write(&v1, m.TraceName, m.Open()); err != nil {
		b.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WritePdtz(&v2, m.TraceName, m.Open()); err != nil {
		b.Fatal(err)
	}
	batch := make([]isa.Branch, 4096)

	b.Run("v1-decoder", func(b *testing.B) {
		data := v1.Bytes()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := NewDecoder(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			var got int
			for {
				n, err := dec.NextBatch(batch)
				got += n
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if got != records {
				b.Fatalf("decoded %d records, want %d", got, records)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
	})

	b.Run("pdtz-blockreader", func(b *testing.B) {
		z, err := ParsePdtz(v2.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(v2.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := z.Open().(*BlockReader)
			var got int
			for {
				n, err := r.NextBatch(batch)
				got += n
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if got != records {
				b.Fatalf("decoded %d records, want %d", got, records)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
	})
}

// BenchmarkEncode keeps the write paths honest too: v2 must not cost more
// than a small constant over v1 despite building the block index.
func BenchmarkEncode(b *testing.B) {
	const records = 200_000
	m := benchTrace(b, records)
	b.Run("v1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := Write(&buf, m.TraceName, m.Open()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pdtz", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := WritePdtz(&buf, m.TraceName, m.Open()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
