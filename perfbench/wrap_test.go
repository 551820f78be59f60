package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// nextOnly hides a reader's NextBatch.
type nextOnly struct{ trace.Reader }

type nextOnlySource struct{ trace.Source }

func (s nextOnlySource) Open() trace.Reader { return nextOnly{s.Source.Open()} }

func testTrace(t *testing.T) *trace.Memory {
	t.Helper()
	_, m, err := workload.Build(seededApp(workload.Default(), 7), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The wrapped reader must keep the core on its batch path.
func TestTracedSourceForwardsNextBatch(t *testing.T) {
	m := testTrace(t)
	st := &suiteTrace{rec: newRecorder()}
	src := &tracedSource{Source: m, rec: st.rec, name: "x", opens: &st.opens, reads: &st.reads}
	r := src.Open()
	if _, ok := r.(trace.BatchReader); !ok {
		t.Fatal("wrapped reader hides NextBatch: the core would fall back to per-record reads")
	}
	n, err := drain(r, make([]isa.Branch, 1000))
	if err != nil || n != len(m.Records) {
		t.Fatalf("drained %d records (err %v), want %d", n, err, len(m.Records))
	}
	if st.opens.Load() != 1 || st.reads.Load() != int64(len(m.Records)) {
		t.Errorf("counted %d opens, %d records", st.opens.Load(), st.reads.Load())
	}
	if spans := st.rec.finished(); len(spans) != 1 || spans[0].Cat != "trace" {
		t.Errorf("want one read span ended at EOF, got %+v", spans)
	}
	if src.finish() != 0 {
		t.Error("a reader that reached EOF counted as abandoned")
	}

	// A reader without NextBatch must not be dressed up as having one.
	plain := &tracedSource{Source: nextOnlySource{m}, rec: st.rec, name: "y", opens: &st.opens, reads: &st.reads}
	if _, ok := plain.Open().(trace.BatchReader); ok {
		t.Error("wrapper claims NextBatch its reader lacks")
	}
}

// The replay pass's timing wrapper must keep the core on its batch path
// too, stamping once per batch read, and leave a Next-only reader alone.
func TestStampedSourceForwardsNextBatch(t *testing.T) {
	m := testTrace(t)
	var log stampLog
	r := stampedSource{Source: m, log: &log}.Open()
	if _, ok := r.(trace.BatchReader); !ok {
		t.Fatal("stamped reader hides NextBatch: the core would fall back to per-record reads")
	}
	buf := make([]isa.Branch, 1000)
	n, err := drain(r, buf)
	if err != nil || n != len(m.Records) {
		t.Fatalf("drained %d records (err %v), want %d", n, err, len(m.Records))
	}
	if full := (n + len(buf) - 1) / len(buf); len(log.ts) < full || len(log.ts) > full+1 {
		t.Errorf("%d stamps for %d records in batches of %d, want one per batch read", len(log.ts), n, len(buf))
	}
	if _, ok := (stampedSource{Source: nextOnlySource{m}, log: &log}).Open().(nextOnly); !ok {
		t.Error("a reader without NextBatch was wrapped")
	}
}

// The traced suite must keep warm-state sharing, so it must not decorate
// the direction predictor: core.WarmupCompatible refuses a custom one.
func TestTracedSuiteKeepsWarmSharing(t *testing.T) {
	base := core.Config{Params: core.Icelake(), BackendCPI: 1, WarmupInstrs: 1000}
	decorated := base
	if err := decorate(&decorated, nil, 0, sampleEvery); err != nil {
		t.Fatal(err)
	}
	if core.WarmupCompatible(base, decorated) == nil {
		t.Fatal("a decorated direction predictor passed the warm-compatibility gate; the rule is moot")
	}

	opts := experiments.Options{Apps: 2, TotalInstrs: 200_000, WarmupInstrs: 60_000, Workers: 2, Catalog: seededCatalog(3)}
	tr := &suiteTrace{rec: newRecorder()}
	traced := suitePass(context.Background(), opts, tr)
	plain := suitePass(context.Background(), opts, nil)
	for i, e := range experiments.All() {
		if traced.errs[i] != nil || plain.errs[i] != nil {
			t.Fatalf("%s: %v / %v", e.ID, traced.errs[i], plain.errs[i])
		}
		if traced.digests[i] != plain.digests[i] {
			t.Errorf("%s: traced report differs from untraced", e.ID)
		}
	}
	if tr.partial.Load() == 0 {
		t.Error("no warm-prefix reads in the traced suite: warm-state sharing is off")
	}
	if tr.builds.Load() == 0 || tr.opens.Load() <= tr.builds.Load() {
		t.Errorf("counted %d builds and %d opens", tr.builds.Load(), tr.opens.Load())
	}
}

// The slices of an operation tile it exactly: they add up to its wall
// time, and only the last ends it.
func TestStampLogSlicesTileTheOperation(t *testing.T) {
	var log stampLog
	start := time.Unix(100, 0)
	for _, ms := range []int{3, 10, 11} {
		log.ts = append(log.ts, start.Add(time.Duration(ms)*time.Millisecond))
	}
	end := start.Add(20 * time.Millisecond)
	segs := log.slices(start, end)
	want := []time.Duration{3, 7, 1, 9}
	if len(segs) != len(want) {
		t.Fatalf("%d slices, want %d", len(segs), len(want))
	}
	for i, sg := range segs {
		if sg.wall != want[i]*time.Millisecond {
			t.Errorf("slice %d: %v, want %v", i, sg.wall, want[i]*time.Millisecond)
		}
		if sg.ends != (i == len(segs)-1) {
			t.Errorf("slice %d: ends %v", i, sg.ends)
		}
	}
	log.reset()
	if segs := log.slices(start, end); len(segs) != 1 || segs[0].wall != 20*time.Millisecond {
		t.Errorf("no stamps: %+v, want the whole operation as one slice", segs)
	}
}
