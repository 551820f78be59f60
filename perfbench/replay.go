package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The replay apps: one large-footprint app, which exercises the BTB's
// insert/evict path, and one small-footprint app, which mostly hits.
var replayAppNames = []string{"Server-oltp-primary", "Browser-wasm-15"}

// Replay window per app, as in the bench matrix.
const (
	replayInstrs = 1_000_000
	replayWarmup = 400_000
)

// replayModels are the two core models every cell runs under.
var replayModels = []string{perf.ModelAnalytic, perf.ModelPipeline}

// replayTraceEvery samples the timing decorators sparsely in traced replay
// passes, which keeps the trace-event file to a few megabytes.
const replayTraceEvery = 1024

type replayApp struct {
	cfg  workload.Config
	mem  *trace.Memory
	pdtz *trace.Pdtz
}

// buildReplayApps generates the replay apps' traces in memory.
func buildReplayApps(seed uint64) ([]replayApp, error) {
	var apps []replayApp
	for _, name := range replayAppNames {
		cfg, err := catalogApp(name, seed)
		if err != nil {
			return nil, err
		}
		_, mem, err := workload.Build(cfg, replayInstrs)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		apps = append(apps, replayApp{cfg: cfg, mem: mem})
	}
	return apps, nil
}

// replaySetup generates the replay apps, encodes each as a .pdtz file in dir
// and maps it back in.
func replaySetup(seed uint64, dir string) ([]replayApp, error) {
	apps, err := buildReplayApps(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := range apps {
		path := filepath.Join(dir, apps[i].cfg.Name+".pdtz")
		if err := writePdtz(path, apps[i].mem); err != nil {
			closeReplay(apps)
			return nil, err
		}
		if apps[i].pdtz, err = trace.OpenPdtz(path); err != nil {
			closeReplay(apps)
			return nil, err
		}
	}
	return apps, nil
}

func writePdtz(path string, m *trace.Memory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.WritePdtz(f, m.Name(), m.Open())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func closeReplay(apps []replayApp) {
	for _, a := range apps {
		if a.pdtz != nil {
			// The mapping is read-only; an unmap error changes nothing here.
			_ = a.pdtz.Close()
		}
	}
}

// cellConfig is the core configuration of one (app, design) cell.
func cellConfig(app workload.Config, d experiments.Design) (core.Config, error) {
	tp, err := d.New()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Params:       core.Icelake(),
		BackendCPI:   app.BackendCPI,
		BTB:          tp,
		WarmupInstrs: replayWarmup,
	}
	if d.Mod != nil {
		d.Mod(&cfg)
	}
	return cfg, nil
}

func runCell(ctx context.Context, cfg core.Config, model string, src trace.Source) (*core.Result, error) {
	if model == perf.ModelPipeline {
		return core.RunPipelineContext(ctx, cfg, src)
	}
	return core.RunContext(ctx, cfg, src)
}

// decorate wraps cfg's BTB and direction predictor with sampled timing
// under the cell span parent. The direction predictor is the core's own
// default when the design sets none.
func decorate(cfg *core.Config, rec *recorder, parent int, every uint64) error {
	cfg.BTB = &timedBTB{TargetPredictor: cfg.BTB, rec: rec, parent: parent, every: every}
	dir := cfg.Direction
	if dir == nil {
		t, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
		if err != nil {
			return err
		}
		dir = t
	}
	cfg.Direction = &timedDirection{Direction: dir, rec: rec, parent: parent, every: every}
	return nil
}

// replayTrace instruments a traced replay pass.
type replayTrace struct {
	rec          *recorder
	opens, reads atomic.Int64
}

// replayPass replays every (app, design, model) cell cold from src(i), on
// this goroutine, returning each cell's result digest and the pass's
// segments. Untraced, a cell is cut at its batch reads (see stampedSource)
// into slices of some 4096 records; its last slice carries the cell's
// latency, the replay workload's operation. Traced, each cell is one
// segment.
func replayPass(ctx context.Context, apps []replayApp, src func(i int) trace.Source, tr *replayTrace) ([]string, []segment, error) {
	var (
		digests []string
		segs    []segment
		stamps  stampLog
	)
	for _, d := range perf.BenchDesigns() {
		for i, app := range apps {
			for _, model := range replayModels {
				stamps.reset()
				start := time.Now()
				cfg, err := cellConfig(app.cfg, d)
				if err != nil {
					return nil, nil, err
				}
				s := src(i)
				var sp open
				if tr != nil {
					sp = tr.rec.begin(app.cfg.Name+"/"+d.Name+"/"+model, "cell", 0)
					if err := decorate(&cfg, tr.rec, sp.id(), replayTraceEvery); err != nil {
						return nil, nil, err
					}
					s = &tracedSource{Source: s, rec: tr.rec, parent: sp.id(), name: app.cfg.Name, opens: &tr.opens, reads: &tr.reads}
				} else {
					s = stampedSource{Source: s, log: &stamps}
				}
				r, err := runCell(ctx, cfg, model, s)
				end := time.Now()
				sp.end()
				if err != nil {
					return nil, nil, fmt.Errorf("%s/%s/%s: %w", app.cfg.Name, d.Name, model, err)
				}
				segs = append(segs, stamps.slices(start, end)...)
				digests = append(digests, serve.ResultDigest(r))
			}
		}
	}
	return digests, segs, nil
}

func runReplay(ctx context.Context, o options) (*result, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	apps, setups, err := repeatSetup(setupReps, func() ([]replayApp, error) { return replaySetup(o.seed, dir) }, closeReplay)
	if err != nil {
		return nil, err
	}
	defer closeReplay(apps)

	cells := uint64(len(perf.BenchDesigns()) * len(replayModels))
	res := &result{setup: setups}
	for _, a := range apps {
		res.passRecords += uint64(len(a.mem.Records)) * cells
		res.passInstrs += a.mem.Instructions() * cells
	}
	fromPdtz := func(i int) trace.Source { return apps[i].pdtz }

	// Every pass must reproduce the first pass's results, cell by cell.
	var first []string
	check := func(digests []string, what string) {
		if first == nil {
			first = digests
		}
		for i, d := range digests {
			res.attempted++
			if d != first[i] {
				res.failed++
				fmt.Printf("check: replay cell %d, %s: digest %s, first pass %s\n", i, what, d, first[i])
			}
		}
	}
	untraced := func() (time.Duration, error) {
		start := time.Now()
		digests, segs, err := replayPass(ctx, apps, fromPdtz, nil)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		check(digests, "pass")
		res.segs = append(res.segs, segs)
		return wall, nil
	}
	var opens, reads []float64
	traced := func(rec *recorder) (time.Duration, error) {
		tr := &replayTrace{rec: rec}
		start := time.Now()
		digests, _, err := replayPass(ctx, apps, fromPdtz, tr)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		check(digests, "traced pass")
		opens = append(opens, float64(tr.opens.Load()))
		reads = append(reads, float64(tr.reads.Load()))
		return wall, nil
	}
	var (
		tracedWalls []time.Duration
		rec         *recorder
	)
	if res.passes, tracedWalls, rec, err = phases(o, untraced, traced); err != nil {
		return nil, err
	}
	res.heapMB = liveHeapMB()

	// Reference: the same cells from the in-memory traces, bypassing the
	// .pdtz encoder and decoder.
	ref, _, err := replayPass(ctx, apps, func(i int) trace.Source { return apps[i].mem }, nil)
	if err != nil {
		return nil, err
	}
	check(ref, "in-memory reference")
	res.digest = digestStrings(first)

	if o.trace {
		res.layers = map[string]float64{
			"trace.opens":        median(opens),
			"trace.records_read": median(reads),
		}
		printInSitu(rec.finished(), replayTraceEvery, clockCost(rec))
		if err := finishTraced(ctx, o, res, rec, tracedWalls, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cellSplit is a traced cell's time split by its sampled decorator spans.
type cellSplit struct {
	total, btb, dir, self time.Duration
}

// splitCell splits a cell span into BTB time, direction-predictor time and
// the rest (decode, I-cache and the core's own accounting). Sampled spans
// are scaled by the sampling interval after the clock's own cost is taken
// off each.
func splitCell(cell span, kids []span, every int, clock time.Duration) cellSplit {
	var b, d []span
	for _, k := range trimmed(kids, clock) {
		switch k.Cat {
		case "btb":
			b = append(b, k)
		case "predictor":
			d = append(d, k)
		}
	}
	scale := time.Duration(every)
	return cellSplit{
		total: cell.End - cell.Start,
		btb:   scale * covered(cell.Start, cell.End, b),
		dir:   scale * covered(cell.Start, cell.End, d),
		self:  selfTime(cell, append(b, d...), every),
	}
}

// printInSitu prints how the traced replay's cell time splits.
func printInSitu(spans []span, every int, clock time.Duration) {
	kids := childrenOf(spans)
	var sum cellSplit
	for _, s := range spans {
		if s.Cat != "cell" {
			continue
		}
		c := splitCell(s, kids[s.ID], every, clock)
		sum.total += c.total
		sum.btb += c.btb
		sum.dir += c.dir
		sum.self += c.self
	}
	if sum.total <= 0 {
		return
	}
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(sum.total) }
	fmt.Printf("in-situ (traced replay, decorators sampled 1/%d): btb %.1f%%, direction %.1f%%, rest %.1f%% of %.2fs in cells\n",
		every, share(sum.btb), share(sum.dir), share(sum.self), sum.total.Seconds())
}
