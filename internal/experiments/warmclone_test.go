package experiments

import (
	"context"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// warmCloneBase returns the canonical base config the suite runner warms
// with, scaled down for test speed. AuditEvery is set so the periodic
// btb.Auditable deep checks run on both paths at the same cadence — the
// differential-oracle guarantee that a logged run is not just numerically
// but structurally equivalent to a cold run.
func warmCloneBase(app workload.Config) core.Config {
	return core.Config{
		Params:       core.Icelake(),
		BackendCPI:   app.BackendCPI,
		WarmupInstrs: 40_000,
		AuditEvery:   2048,
	}
}

// TestWarmCloneOracle is the shared-log acceptance test: for every design
// in the registry, a run that reads the caches and direction predictor from
// the app's shared frontend log must produce a Result bit-identical to a
// cold run of the same (app, design) pair. Result holds only value fields, so == is a
// full bit comparison.
func TestWarmCloneOracle(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-oracle"
	app.Seed = 41
	_, src, err := workload.Build(app, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	base := warmCloneBase(app)
	warm, err := core.WarmupContext(context.Background(), base, src)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range DiffDesigns() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			coldCfg := base
			tp, err := d.New()
			if err != nil {
				t.Fatal(err)
			}
			coldCfg.BTB = tp
			if d.Mod != nil {
				d.Mod(&coldCfg)
			}
			cold, err := core.RunContext(context.Background(), coldCfg, src)
			if err != nil {
				t.Fatal(err)
			}

			warmCfg := base
			tp2, err := d.New()
			if err != nil {
				t.Fatal(err)
			}
			warmCfg.BTB = tp2
			if d.Mod != nil {
				d.Mod(&warmCfg)
			}
			if err := warm.Compatible(warmCfg); err != nil {
				t.Fatalf("registry design incompatible with the shared log: %v", err)
			}
			got, err := core.RunWarmContext(context.Background(), warmCfg, src, warm)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *cold {
				t.Errorf("logged run diverges from cold run:\nwarm: %+v\ncold: %+v", got, cold)
			}
		})
	}
}

// TestWarmCloneOracleModdedConfigs exercises the compatibility gate's edge
// configs explicitly. Everything the shared frontend log does not depend
// on — perfect direction, ITTAGE-served indirects, returns routed through
// the BTB, a scaled core, a smaller fetch queue, the pipeline model, other
// warmup and measure windows — reads the log and must match a cold run bit
// for bit. What the log does depend on — the cache geometry, the absence
// of wrong-path pollution, the default direction predictor — must be
// refused.
func TestWarmCloneOracleModdedConfigs(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-modded"
	app.Seed = 43
	_, src, err := workload.Build(app, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	base := warmCloneBase(app)
	warm, err := core.WarmupContext(context.Background(), base, src)
	if err != nil {
		t.Fatal(err)
	}

	withMod := func(name string, mod func(*core.Config)) Design {
		d := BaselineDesign(name, 1024)
		d.Mod = mod
		return d
	}
	ftq := core.Icelake()
	ftq.FetchQueueEntries = 16
	compatible := []Design{
		WithPerfectDirection(BaselineDesign("perfect-dir", 1024)),
		WithITTAGE(BaselineDesign("ittage", 1024)),
		WithReturnsInBTB(BaselineDesign("returns-in-btb", 1024)),
		WithParams(BaselineDesign("scaled", 1024), "scaled-x2", core.Icelake().Scale(2)),
		WithParams(BaselineDesign("ftq", 1024), "ftq16", ftq),
		withMod("pipeline", func(c *core.Config) { c.UsePipeline = true }),
		withMod("scaled-pipeline", func(c *core.Config) { c.Params = core.Icelake().Scale(1.5); c.UsePipeline = true }),
		withMod("half-window", func(c *core.Config) { c.WarmupInstrs /= 2 }),
		withMod("no-window", func(c *core.Config) { c.WarmupInstrs = 0 }),
		withMod("measure-window", func(c *core.Config) { c.MeasureInstrs = 30_000 }),
	}
	for _, d := range compatible {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			mk := func() core.Config {
				cfg := base
				tp, err := d.New()
				if err != nil {
					t.Fatal(err)
				}
				cfg.BTB = tp
				if d.Mod != nil {
					d.Mod(&cfg)
				}
				return cfg
			}
			cold, err := core.RunContext(context.Background(), mk(), src)
			if err != nil {
				t.Fatal(err)
			}
			warmCfg := mk()
			if err := warm.Compatible(warmCfg); err != nil {
				t.Fatalf("expected compatible, got %v", err)
			}
			got, err := core.RunWarmContext(context.Background(), warmCfg, src, warm)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *cold {
				t.Errorf("logged run diverges from cold run:\nwarm: %+v\ncold: %+v", got, cold)
			}
		})
	}

	t.Run("incompatible", func(t *testing.T) {
		custom, err := predictor.NewBimodal(4096)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			mod  func(*core.Config)
		}{
			{"icache bytes halved", func(c *core.Config) { c.Params.ICacheBytes /= 2 }},
			{"icache ways changed", func(c *core.Config) { c.Params.ICacheWays /= 2 }},
			{"line size changed", func(c *core.Config) { c.Params.ICacheLineBytes *= 2 }},
			{"L2 bytes changed", func(c *core.Config) { c.Params.L2Bytes /= 2 }},
			{"L2 ways changed", func(c *core.Config) { c.Params.L2Ways /= 2 }},
			{"wrong-path lines", func(c *core.Config) { c.Params.WrongPathLines = 4 }},
			{"custom direction predictor", func(c *core.Config) { c.Direction = custom }},
		} {
			cfg := base
			c.mod(&cfg)
			if err := warm.Compatible(cfg); err == nil {
				t.Errorf("%s accepted by the shared frontend log", c.name)
			}
			tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 1024})
			if err != nil {
				t.Fatal(err)
			}
			cfg.BTB = tp
			if _, err := core.NewWarmSession(cfg, warm, src.Name()); err == nil {
				t.Errorf("%s: NewWarmSession built a logged session", c.name)
			}
		}
	})
}
