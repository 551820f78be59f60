package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pdede"
	"repro/internal/trace"
)

// TestSessionMatchesRunContext proves the incremental path is the same
// simulation: feeding the trace through a Session in ragged batch sizes
// must reproduce the whole-trace result bit-for-bit, including cycle
// floats, for the analytic model, the pipeline model and logged sessions of
// both models whose batch edges straddle the first measured record and end at the end
// of its log. A Snapshot taken
// mid-stream must likewise equal a whole-trace run of the records applied
// so far: no model may defer part of its result to the end of the trace.
func TestSessionMatchesRunContext(t *testing.T) {
	tr, app := testTrace(t, 3000)
	ctx := context.Background()

	mk := func(pipe bool) Config {
		tp, err := pdede.New(pdede.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Params:       Icelake(),
			BackendCPI:   app.BackendCPI,
			BTB:          tp,
			WarmupInstrs: 100_000,
			UsePipeline:  pipe,
		}
	}
	warm, err := WarmupContext(ctx, mk(false), tr)
	if err != nil {
		t.Fatal(err)
	}
	// first is the index of the first measured record: the first whose
	// block starts at or past the warmup window.
	first := 0
	for seen := uint64(0); seen < mk(false).WarmupInstrs; first++ {
		seen += uint64(tr.Records[first].BlockLen)
	}

	// Ragged batch sizes exercise every batch-boundary path: single
	// records, odd chunks, and one large tail.
	ragged := []int{1, 7, 64, 1, 997, 3, 4096}
	cases := []struct {
		name  string
		want  func(trace.Source) (*Result, error)
		start func() (*Session, error)
		lead  []int // batch sizes before the ragged cycle
	}{
		{
			name:  "analytic",
			want:  func(src trace.Source) (*Result, error) { return RunContext(ctx, mk(false), src) },
			start: func() (*Session, error) { return NewSession(mk(false), tr.Name()) },
		},
		{
			name:  "pipeline",
			want:  func(src trace.Source) (*Result, error) { return RunPipelineContext(ctx, mk(false), src) },
			start: func() (*Session, error) { return NewSession(mk(true), tr.Name()) },
		},
		{
			// Edges at first-1, first and first+1: the last warmup
			// record, the first measured one, and the one after it each
			// open a batch. The last batch ends at the end of the log,
			// which covers the whole trace; one record more is refused.
			name:  "warm",
			want:  func(src trace.Source) (*Result, error) { return RunContext(ctx, mk(false), src) },
			start: func() (*Session, error) { return NewWarmSession(mk(false), warm, tr.Name()) },
			lead:  []int{first - 1, 1, 1},
		},
		{
			name:  "warm-pipeline",
			want:  func(src trace.Source) (*Result, error) { return RunPipelineContext(ctx, mk(false), src) },
			start: func() (*Session, error) { return NewWarmSession(mk(true), warm, tr.Name()) },
			lead:  []int{first - 1, 1, 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			se, err := c.start()
			if err != nil {
				t.Fatal(err)
			}
			recs := tr.Records
			var midPos int
			var mid Result
			for i, pos := 0, 0; pos < len(recs); i++ {
				n := ragged[i%len(ragged)]
				if i < len(c.lead) {
					n = c.lead[i]
				}
				if pos+n > len(recs) {
					n = len(recs) - pos
				}
				applied, done, err := se.Apply(recs[pos : pos+n])
				if err != nil {
					t.Fatal(err)
				}
				if done {
					t.Fatal("measure window reported done with MeasureInstrs=0")
				}
				if applied != n {
					t.Fatalf("Apply consumed %d of %d", applied, n)
				}
				pos += n
				if midPos == 0 && pos >= len(recs)/2 {
					midPos, mid = pos, se.Snapshot()
				}
			}
			if se.Records() != uint64(len(recs)) {
				t.Fatalf("Records() = %d, want %d", se.Records(), len(recs))
			}
			if strings.HasPrefix(c.name, "warm") {
				if n, _, err := se.Apply(recs[:1]); err == nil || n != 0 {
					t.Errorf("record past the log's end: consumed %d, err %v; want 0 and an error", n, err)
				}
			}
			for _, cut := range []struct {
				got  Result
				recs []isa.Branch
			}{{se.Snapshot(), recs}, {mid, recs[:midPos]}} {
				want, err := c.want(&trace.Memory{TraceName: tr.TraceName, Records: cut.recs})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&cut.got, want) {
					t.Errorf("session after %d records diverged from the whole-trace run:\n got %+v\nwant %+v",
						len(cut.recs), &cut.got, want)
				}
			}
		})
	}
}

// TestSessionMeasureWindow checks that Apply stops mid-batch when the
// measure window fills and reports the records actually consumed.
func TestSessionMeasureWindow(t *testing.T) {
	tr, app := testTrace(t, 500)
	tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:        Icelake(),
		BackendCPI:    app.BackendCPI,
		BTB:           tp,
		MeasureInstrs: 50_000,
	}
	se, err := NewSession(cfg, tr.Name())
	if err != nil {
		t.Fatal(err)
	}
	applied, done, err := se.Apply(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("measure window never filled")
	}
	if applied == len(tr.Records) || applied == 0 {
		t.Fatalf("expected a mid-batch stop, consumed %d of %d", applied, len(tr.Records))
	}
	if got := se.Result().Instructions; got < cfg.MeasureInstrs {
		t.Errorf("measured %d instructions, want >= %d", got, cfg.MeasureInstrs)
	}
}

// auditFailBTB is a stub predictor whose audit starts failing after a set
// number of updates, standing in for a structure that corrupts mid-stream.
type auditFailBTB struct {
	updates   int
	failAfter int
}

func (a *auditFailBTB) Name() string                  { return "audit-fail-stub" }
func (a *auditFailBTB) Lookup(addr.VA) btb.Lookup     { return btb.Lookup{} }
func (a *auditFailBTB) Update(isa.Branch, btb.Lookup) { a.updates++ }
func (a *auditFailBTB) StorageBits() uint64           { return 0 }
func (a *auditFailBTB) Reset()                        { a.updates = 0 }
func (a *auditFailBTB) Audit() error {
	if a.updates > a.failAfter {
		return fmt.Errorf("stub corruption after %d updates", a.failAfter)
	}
	return nil
}

// TestSessionAuditDetectsCorruption wires AuditEvery through Apply: once
// the structure's invariants break, the periodic audit must abort the
// session mid-batch with the audit error.
func TestSessionAuditDetectsCorruption(t *testing.T) {
	tr, app := testTrace(t, 500)
	cfg := Config{
		Params:     Icelake(),
		BackendCPI: app.BackendCPI,
		BTB:        &auditFailBTB{failAfter: 1500},
		AuditEvery: 500,
	}
	se, err := NewSession(cfg, tr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.Apply(tr.Records[:1000]); err != nil {
		t.Fatalf("clean structure failed audit: %v", err)
	}
	if err := se.Audit(); err != nil {
		t.Fatalf("explicit audit on clean structure: %v", err)
	}
	applied, _, err := se.Apply(tr.Records[1000:4000])
	if err == nil {
		t.Fatal("periodic audit missed injected corruption")
	}
	if applied == 0 || applied == 3000 {
		t.Errorf("audit should stop mid-batch, consumed %d", applied)
	}
}
