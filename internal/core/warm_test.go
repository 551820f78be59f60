package core

import (
	"context"
	"testing"

	"repro/internal/btb"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWarmStateClonesAreIndependent is the sharing property at the session
// level: driving one logged session to completion must not perturb the
// shared WarmState or any sibling session reading it. Runs of the same
// design from the same log — before, between and after runs of a different
// design and of the pipeline model — must stay bit-identical, and every
// run's btb.Auditable census must stay clean (state leaking between
// sessions corrupts replacement state long before it changes headline IPC).
func TestWarmStateClonesAreIndependent(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-indep"
	app.Seed = 59
	_, src, err := workload.Build(app, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Params:       Icelake(),
		BackendCPI:   app.BackendCPI,
		WarmupInstrs: 30_000,
		AuditEvery:   1024, // deep census on every run, same cadence
	}
	warm, err := WarmupContext(context.Background(), base, src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(entries int, pipe bool) *Result {
		cfg := base
		cfg.UsePipeline = pipe
		tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		cfg.BTB = tp
		res, err := RunWarmContext(context.Background(), cfg, src, warm)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(1024, false)
	other := run(4096, false) // sibling design mutates its own state only
	run(1024, true)           // so does a sibling of the other model
	again := run(1024, false)
	if *first != *again {
		t.Errorf("sibling run perturbed a later clone of the same design:\nfirst: %+v\nagain: %+v", first, again)
	}
	if *first == *other {
		t.Error("different designs produced identical results; clone test is vacuous")
	}
	// The shared log itself must still serve pristine sessions.
	final := run(1024, false)
	if *first != *final {
		t.Errorf("parent warm state drifted across runs:\nfirst: %+v\nfinal: %+v", first, final)
	}
}

// TestWarmupContextRefusals pins the gate conditions that force a cold
// fallback at log construction time: the base config itself must be one
// whose caches and direction predictor no BTB prediction can reach.
func TestWarmupContextRefusals(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-refuse"
	app.Seed = 61
	_, src, err := workload.Build(app, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Params: Icelake(), BackendCPI: app.BackendCPI, WarmupInstrs: 10_000}

	custom := base
	custom.Direction, err = predictor.NewBimodal(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmupContext(context.Background(), custom, src); err == nil {
		t.Error("custom direction predictor accepted: the log records the default TAGE")
	}

	bad := base
	bad.Params.ICacheWays = 0
	if _, err := WarmupContext(context.Background(), bad, src); err == nil {
		t.Error("invalid core parameters accepted")
	}

	pollute := base
	pollute.Params.WrongPathLines = 4
	if _, err := WarmupContext(context.Background(), pollute, src); err == nil {
		t.Error("wrong-path pollution accepted: cache state would depend on the BTB")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WarmupContext(ctx, base, src); err == nil {
		t.Error("cancelled context not observed by the shared frontend pass")
	}
}

// TestWarmStateCoverage pins what the log covers: every record of the
// trace, whatever the base config's warmup window, so a session of any
// window reads a logged outcome for each record it steps.
func TestWarmStateCoverage(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-bound"
	app.Seed = 67
	_, src, err := workload.Build(app, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []uint64{0, 20_000, 1 << 40} {
		base := Config{Params: Icelake(), BackendCPI: app.BackendCPI, WarmupInstrs: window}
		warm, err := WarmupContext(context.Background(), base, src)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := warm.Records(), uint64(len(src.Records)); got != want || uint64(len(warm.recs)) != want {
			t.Errorf("window %d: log covers %d records (len %d), want the trace's %d", window, got, len(warm.recs), want)
		}
		if got, want := warm.Instructions(), src.Instructions(); got != want {
			t.Errorf("window %d: log covers %d instructions, want the trace's %d", window, got, want)
		}
	}

	empty, err := WarmupContext(context.Background(),
		Config{Params: Icelake(), BackendCPI: app.BackendCPI}, &trace.Memory{TraceName: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Records() != 0 || empty.recs == nil {
		t.Errorf("empty trace: log covers %d records (nil log: %v), want an empty, non-nil log", empty.Records(), empty.recs == nil)
	}
}

// TestWarmSessionPastLogErrors checks that a logged session refuses records
// its log does not cover: Apply consumes exactly the logged records of a
// batch that runs past the log, returns an error instead of panicking or
// simulating the rest cold, and the records it did consume match a cold
// run over the same prefix bit for bit.
func TestWarmSessionPastLogErrors(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-past"
	app.Seed = 71
	_, src, err := workload.Build(app, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	logged := &trace.Memory{TraceName: src.TraceName, Records: src.Records[:len(src.Records)/2]}
	for _, pipe := range []bool{false, true} {
		mk := func() Config {
			tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 1024})
			if err != nil {
				t.Fatal(err)
			}
			return Config{Params: Icelake(), BackendCPI: app.BackendCPI, BTB: tp, WarmupInstrs: 10_000, UsePipeline: pipe}
		}
		warm, err := WarmupContext(context.Background(), mk(), logged)
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewWarmSession(mk(), warm, src.Name())
		if err != nil {
			t.Fatal(err)
		}
		n, done, err := se.Apply(src.Records)
		if err == nil || done {
			t.Fatalf("pipeline=%v: Apply past the log returned done=%v err=%v, want an error", pipe, done, err)
		}
		if n != len(logged.Records) {
			t.Errorf("pipeline=%v: Apply consumed %d records, want the %d the log covers", pipe, n, len(logged.Records))
		}
		if n, _, err := se.Apply(src.Records[n:]); err == nil || n != 0 {
			t.Errorf("pipeline=%v: a session at the end of its log consumed %d records (err %v)", pipe, n, err)
		}
		cold, err := RunContext(context.Background(), mk(), logged)
		if err != nil {
			t.Fatal(err)
		}
		if got := se.Snapshot(); got != *cold {
			t.Errorf("pipeline=%v: logged prefix diverges from a cold run:\n got %+v\nwant %+v", pipe, got, *cold)
		}
	}
}
