package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/btb"
	"repro/internal/pdede"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testTrace(t *testing.T, branches int) (*trace.Memory, workload.Config) {
	t.Helper()
	cfg := workload.Default()
	cfg.StaticBranches = branches
	_, tr, err := workload.Build(cfg, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cfg
}

func runWith(t *testing.T, tp btb.TargetPredictor, tr *trace.Memory, app workload.Config, mod func(*Config)) *Result {
	t.Helper()
	cfg := Config{
		Params:       Icelake(),
		BackendCPI:   app.BackendCPI,
		BTB:          tp,
		WarmupInstrs: 200_000,
	}
	if mod != nil {
		mod(&cfg)
	}
	res, err := RunContext(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParamsValidate(t *testing.T) {
	if err := Icelake().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Icelake()
	bad.FetchWidth = 0
	if bad.Validate() == nil {
		t.Error("zero fetch width accepted")
	}
	bad = Icelake()
	bad.ExecResteer = 1 // below decode resteer
	if bad.Validate() == nil {
		t.Error("exec < decode resteer accepted")
	}
}

func TestScale(t *testing.T) {
	p := Icelake()
	s := p.Scale(2)
	if s.DecodeResteer != 2*p.DecodeResteer || s.ExecResteer != 2*p.ExecResteer {
		t.Errorf("Scale(2) penalties: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	tr, app := testTrace(t, 2000)
	base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 512})
	if _, err := RunContext(context.Background(), Config{Params: Icelake(), BackendCPI: app.BackendCPI}, tr); err == nil {
		t.Error("nil BTB accepted")
	}
	if _, err := RunContext(context.Background(), Config{Params: Icelake(), BTB: base}, tr); err == nil {
		t.Error("zero BackendCPI accepted")
	}
	bad := Icelake()
	bad.RASEntries = 0
	if _, err := RunContext(context.Background(), Config{Params: bad, BackendCPI: 0.5, BTB: base}, tr); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDeterminism(t *testing.T) {
	tr, app := testTrace(t, 2000)
	mk := func() *Result {
		b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
		return runWith(t, b, tr, app, nil)
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.BTBMisses() != b.BTBMisses() || a.Instructions != b.Instructions {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestIPCBounded(t *testing.T) {
	tr, app := testTrace(t, 2000)
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res := runWith(t, b, tr, app, nil)
	if ipc := res.IPC(); ipc <= 0 || ipc > float64(Icelake().RetireWidth) {
		t.Errorf("IPC = %v outside (0, retire width]", ipc)
	}
	// Backend CPI bound: IPC cannot exceed 1/BackendCPI either.
	if ipc := res.IPC(); ipc > 1/app.BackendCPI+1e-9 {
		t.Errorf("IPC %v exceeds backend bound %v", ipc, 1/app.BackendCPI)
	}
}

func TestPerfectBTBNearZeroTargetMPKI(t *testing.T) {
	tr, app := testTrace(t, 2000)
	res := runWith(t, btb.NewPerfect(), tr, app, nil)
	// Only compulsory misses and genuine target changes remain.
	if res.BTBMPKI() > 3.0 {
		t.Errorf("perfect BTB MPKI = %v, want small", res.BTBMPKI())
	}
	base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	rb := runWith(t, base, tr, app, nil)
	if res.BTBMPKI() > rb.BTBMPKI() {
		t.Errorf("perfect BTB (%v) missed more than baseline (%v)", res.BTBMPKI(), rb.BTBMPKI())
	}
}

func TestCapacityOrdering(t *testing.T) {
	// A capacity-bound app: bigger BTBs must monotonically reduce MPKI.
	tr, app := testTrace(t, 16000)
	var prev float64 = math.Inf(1)
	for _, entries := range []int{1024, 4096, 16384} {
		b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: entries})
		res := runWith(t, b, tr, app, nil)
		if res.BTBMPKI() > prev {
			t.Errorf("MPKI rose from %v to %v at %d entries", prev, res.BTBMPKI(), entries)
		}
		prev = res.BTBMPKI()
	}
}

func TestPDedeBeatsBaselineWhenCapacityBound(t *testing.T) {
	tr, app := testTrace(t, 16000)
	base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	rb := runWith(t, base, tr, app, nil)
	pd, _ := pdede.New(pdede.MultiEntryConfig())
	rp := runWith(t, pd, tr, app, nil)
	if rp.BTBMPKI() >= rb.BTBMPKI() {
		t.Errorf("PDede-ME MPKI %v not below baseline %v", rp.BTBMPKI(), rb.BTBMPKI())
	}
	if rp.IPC() <= rb.IPC() {
		t.Errorf("PDede-ME IPC %v not above baseline %v", rp.IPC(), rb.IPC())
	}
}

func TestVariantOrdering(t *testing.T) {
	tr, app := testTrace(t, 16000)
	mpki := map[string]float64{}
	for _, cfg := range []pdede.Config{pdede.DefaultConfig(), pdede.MultiTargetConfig(), pdede.MultiEntryConfig()} {
		pd, err := pdede.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mpki[pd.Name()] = runWith(t, pd, tr, app, nil).BTBMPKI()
	}
	if mpki["pdede-mt"] > mpki["pdede"]*1.02 {
		t.Errorf("MultiTarget (%v) worse than Default (%v)", mpki["pdede-mt"], mpki["pdede"])
	}
	if mpki["pdede-me"] > mpki["pdede-mt"]*1.02 {
		t.Errorf("MultiEntry (%v) worse than MultiTarget (%v)", mpki["pdede-me"], mpki["pdede-mt"])
	}
}

func TestWarmupReducesColdMisses(t *testing.T) {
	tr, app := testTrace(t, 8000)
	mk := func(warm uint64) float64 {
		b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 16384})
		res := runWith(t, b, tr, app, func(c *Config) { c.WarmupInstrs = warm })
		return res.BTBMPKI()
	}
	cold := mk(0)
	warm := mk(300_000)
	if warm >= cold {
		t.Errorf("warmup did not reduce cold misses: %v vs %v", warm, cold)
	}
}

func TestMeasureWindowLimit(t *testing.T) {
	tr, app := testTrace(t, 2000)
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res := runWith(t, b, tr, app, func(c *Config) {
		c.WarmupInstrs = 100_000
		c.MeasureInstrs = 50_000
	})
	if res.Instructions < 50_000 || res.Instructions > 52_000 {
		t.Errorf("measured %d instructions, want ≈50000", res.Instructions)
	}
}

func TestPerfectDirectionRemovesDirResteers(t *testing.T) {
	tr, app := testTrace(t, 4000)
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res := runWith(t, b, tr, app, func(c *Config) { c.PerfectDirection = true })
	if res.DirMispredicts != 0 {
		t.Errorf("perfect direction left %d mispredicts", res.DirMispredicts)
	}
	b2, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res2 := runWith(t, b2, tr, app, nil)
	if res.IPC() <= res2.IPC() {
		t.Errorf("perfect direction IPC %v not above real %v", res.IPC(), res2.IPC())
	}
}

func TestITTAGEHandlesIndirects(t *testing.T) {
	tr, app := testTrace(t, 4000)
	mk := func(withIT bool) *Result {
		b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
		return runWith(t, b, tr, app, func(c *Config) {
			if withIT {
				it, err := predictor.NewITTAGE(predictor.Default64KBConfig())
				if err != nil {
					t.Fatal(err)
				}
				c.ITTAGE = it
			}
		})
	}
	with := mk(true)
	without := mk(false)
	// With ITTAGE, indirect branches never count against the BTB.
	if with.BTBMissByClass[2] != 0 { // isa.ClassIndirect
		t.Errorf("indirect BTB misses with ITTAGE: %d", with.BTBMissByClass[2])
	}
	if without.BTBMissByClass[2] == 0 {
		t.Error("no indirect misses without ITTAGE — workload broken?")
	}
}

func TestStoreReturnsInBTB(t *testing.T) {
	tr, app := testTrace(t, 4000)
	pd, _ := pdede.New(func() pdede.Config {
		c := pdede.MultiEntryConfig()
		c.StoreReturns = true
		return c
	}())
	res := runWith(t, pd, tr, app, func(c *Config) { c.StoreReturnsInBTB = true })
	if res.TakenByClass[3] == 0 {
		t.Fatal("no returns in trace")
	}
	if res.BTBMissByClass[3] == 0 {
		t.Error("returns stored in BTB but never missed — suspicious for call-stack targets")
	}
	// RAS path should beat BTB-stored returns (the paper sees lower gains).
	pd2, _ := pdede.New(pdede.MultiEntryConfig())
	res2 := runWith(t, pd2, tr, app, nil)
	if res2.RASMispredicts > res2.TakenByClass[3]/10 {
		t.Errorf("RAS mispredicted %d of %d returns", res2.RASMispredicts, res2.TakenByClass[3])
	}
}

func TestFetchQueueSensitivity(t *testing.T) {
	tr, app := testTrace(t, 16000)
	mk := func(ftq int) float64 {
		pd, _ := pdede.New(pdede.MultiEntryConfig())
		res := runWith(t, pd, tr, app, func(c *Config) { c.Params.FetchQueueEntries = ftq })
		return res.IPC()
	}
	small, large := mk(8), mk(128)
	if small > large {
		t.Errorf("smaller FTQ produced higher IPC: %v vs %v", small, large)
	}
}

func TestDeeperPipelineRaisesBTBCost(t *testing.T) {
	tr, app := testTrace(t, 16000)
	speedup := func(scale float64) float64 {
		params := Icelake()
		if scale != 1 {
			params = params.Scale(scale)
		}
		base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
		rb := runWith(t, base, tr, app, func(c *Config) { c.Params = params })
		pd, _ := pdede.New(pdede.MultiEntryConfig())
		rp := runWith(t, pd, tr, app, func(c *Config) { c.Params = params })
		return rp.Speedup(rb)
	}
	s1, s2 := speedup(1), speedup(2)
	if s2 <= s1 {
		t.Errorf("deeper pipeline did not raise PDede's gain: %v vs %v", s2, s1)
	}
}

func TestCycleDecompositionAddsUp(t *testing.T) {
	tr, app := testTrace(t, 8000)
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res := runWith(t, b, tr, app, nil)
	sum := res.BackendCycles + res.FrontendBubbles +
		res.BTBResteerCycles + res.DirResteerCycles + res.RetResteerCycles
	if math.Abs(sum-res.Cycles) > 1e-6*res.Cycles {
		t.Errorf("decomposition %v != total cycles %v", sum, res.Cycles)
	}
	if res.FrontendStallFrac() <= 0 || res.FrontendStallFrac() >= 1 {
		t.Errorf("frontend stall fraction = %v", res.FrontendStallFrac())
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Instructions: 1000, Cycles: 2000}
	r.BTBMissByClass[0] = 5
	if r.IPC() != 0.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.BTBMPKI() != 5 {
		t.Errorf("BTBMPKI = %v", r.BTBMPKI())
	}
	base := &Result{Instructions: 1000, Cycles: 4000}
	base.BTBMissByClass[0] = 10
	if got := r.Speedup(base); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Speedup = %v, want 1.0", got)
	}
	if got := r.MPKIReduction(base); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MPKIReduction = %v, want 0.5", got)
	}
	var zero Result
	if zero.IPC() != 0 || zero.BTBMPKI() != 0 || zero.FrontendStallFrac() != 0 {
		t.Error("zero result ratios should be zero")
	}
	if zero.String() == "" {
		t.Error("empty String")
	}
}
