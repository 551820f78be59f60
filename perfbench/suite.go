package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The suite runs every paper experiment at this fixed reduced scale, on
// one runner worker: its schedule is then one sequence of builds and batch
// reads whose fastest repetitions add up. With nproc workers on a shared
// 2-vCPU host the pass time followed whichever vCPU the neighbours were
// busy on.
const (
	suiteApps    = 4
	suiteInstrs  = 300_000
	suiteWarmup  = 120_000
	suiteWorkers = 1
)

// suiteInput is the suite's generated input: the seeded catalog, plus the
// size of one app set's traces.
type suiteInput struct {
	catalog         []workload.Config
	records, instrs uint64
}

// suiteSetup generates the seeded catalog and builds each selected app's
// trace once to size the input.
func suiteSetup(seed uint64) (*suiteInput, error) {
	in := &suiteInput{catalog: seededCatalog(seed)}
	for _, app := range experiments.NewRunner(suiteOptions(in.catalog)).SuiteApps() {
		_, tr, err := workload.Build(app, suiteInstrs)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", app.Name, err)
		}
		in.records += uint64(len(tr.Records))
		in.instrs += tr.Instructions()
	}
	return in, nil
}

func suiteOptions(catalog []workload.Config) experiments.Options {
	return experiments.Options{
		Apps:         suiteApps,
		TotalInstrs:  suiteInstrs,
		WarmupInstrs: suiteWarmup,
		Workers:      suiteWorkers,
		Catalog:      catalog,
	}
}

// suiteTrace instruments a traced suite pass from outside: trace builds
// through the public Options.BuildTrace hook, reads through wrapped sources.
// The direction predictor is never decorated here: core.WarmupCompatible
// refuses a custom one, which would turn off warm-state sharing.
type suiteTrace struct {
	rec                  *recorder
	builds, opens, reads atomic.Int64
	buildTime            atomic.Int64 // ns
	// partial counts reads abandoned before EOF: the shared warmup passes.
	partial atomic.Int64
}

// suitePassOut is one pass over every experiment.
type suitePassOut struct {
	digests []string // per experiment, of the report text without timing lines
	walls   []time.Duration
	segs    []segment // untraced: every experiment cut at its builds and batch reads
	errs    []error
	report  string
}

// suitePass runs every paper experiment once, each with a fresh runner, as
// `pdede-experiments -run all` does. Untraced, each experiment is cut into
// segments at the start and end of every trace build and at every batch
// read, through the public Options.BuildTrace hook.
func suitePass(ctx context.Context, opts experiments.Options, tr *suiteTrace) suitePassOut {
	var out suitePassOut
	var report bytes.Buffer
	var stamps stampLog
	for _, e := range experiments.All() {
		o := opts
		var (
			sp      open
			mu      sync.Mutex
			sources []*tracedSource
		)
		stamps.reset()
		if tr == nil {
			o.BuildTrace = func(app workload.Config, n uint64) (trace.Source, error) {
				stamps.stamp()
				_, m, err := workload.Build(app, n)
				stamps.stamp()
				if err != nil {
					return nil, err
				}
				return stampedSource{Source: m, log: &stamps}, nil
			}
		} else {
			sp = tr.rec.begin(e.ID, "experiment", 0)
			parent := sp.id()
			o.BuildTrace = func(app workload.Config, n uint64) (trace.Source, error) {
				b := tr.rec.begin("build "+app.Name, "workload", parent)
				t := time.Now()
				_, m, err := workload.Build(app, n)
				tr.buildTime.Add(int64(time.Since(t)))
				tr.builds.Add(1)
				b.end()
				if err != nil {
					return nil, err
				}
				s := &tracedSource{Source: m, rec: tr.rec, parent: parent, name: app.Name, opens: &tr.opens, reads: &tr.reads}
				mu.Lock()
				sources = append(sources, s)
				mu.Unlock()
				return s, nil
			}
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "== %s\n   paper: %s\n\n", e.Title, e.Paper)
		start := time.Now()
		r := experiments.NewRunner(o).WithContext(ctx)
		err := e.Run(r, &buf)
		if err == nil {
			err = r.Err()
		}
		end := time.Now()
		wall := end.Sub(start)
		if tr == nil {
			out.segs = append(out.segs, stamps.slices(start, end)...)
		}
		fmt.Fprintf(&buf, "\n[%s finished in %.1fs]\n\n", e.ID, wall.Seconds())
		for _, s := range sources {
			tr.partial.Add(int64(s.finish()))
		}
		sp.end()
		out.digests = append(out.digests, reportDigest(buf.String()))
		out.walls = append(out.walls, wall)
		out.errs = append(out.errs, err)
		report.Write(buf.Bytes())
	}
	out.report = report.String()
	return out
}

// timingLine matches the per-experiment timing footer, the only part of
// the report that varies from run to run.
var timingLine = regexp.MustCompile(`(?m)^\[[^\]\s]+ finished in [0-9.]+s\]\n`)

// reportDigest fingerprints report text with its timing lines removed.
func reportDigest(text string) string {
	return digestStrings([]string{timingLine.ReplaceAllString(text, "")})
}

func runSuite(ctx context.Context, o options) (*result, error) {
	in, setups, err := repeatSetup(setupReps, func() (*suiteInput, error) { return suiteSetup(o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	exps := experiments.All()
	nexp := uint64(len(exps))
	res := &result{setup: setups, passRecords: in.records * nexp, passInstrs: in.instrs * nexp}
	opts := suiteOptions(in.catalog)

	// Every pass must reproduce the first pass's report, experiment by
	// experiment.
	var first []string
	check := func(p suitePassOut, what string) {
		if first == nil {
			first = p.digests
			// The report is kept for inspection; a failed write only loses that.
			_ = os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("suite-report-seed%d.txt", o.seed)), []byte(p.report), 0o644)
		}
		for i, d := range p.digests {
			res.attempted++
			if p.errs[i] != nil || d != first[i] {
				res.failed++
				fmt.Printf("check: suite %s, %s: digest %s, first pass %s, err %v\n", exps[i].ID, what, d, first[i], p.errs[i])
			}
		}
	}
	expWalls := map[string][]float64{}
	untraced := func() (time.Duration, error) {
		start := time.Now()
		p := suitePass(ctx, opts, nil)
		wall := time.Since(start)
		check(p, "pass")
		for i, e := range exps {
			expWalls[e.ID] = append(expWalls[e.ID], p.walls[i].Seconds())
		}
		if len(res.segs) > 0 && len(p.segs) != len(res.segs[0]) {
			return 0, fmt.Errorf("suite pass cut into %d segments, the first into %d: the runner's schedule is not repeatable", len(p.segs), len(res.segs[0]))
		}
		res.segs = append(res.segs, p.segs)
		return wall, nil
	}
	var builds, buildS, opens, reads, busy []float64
	traced := func(rec *recorder) (time.Duration, error) {
		tr := &suiteTrace{rec: rec}
		before := len(rec.finished())
		start := time.Now()
		p := suitePass(ctx, opts, tr)
		wall := time.Since(start)
		check(p, "traced pass")
		var b time.Duration
		for _, s := range rec.finished()[before:] {
			if s.Cat == "workload" || s.Cat == "trace" {
				b += s.End - s.Start
			}
		}
		builds = append(builds, float64(tr.builds.Load()))
		buildS = append(buildS, time.Duration(tr.buildTime.Load()).Seconds())
		opens = append(opens, float64(tr.opens.Load()))
		reads = append(reads, float64(tr.reads.Load()))
		busy = append(busy, b.Seconds())
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

	// The reference: every cell simulated from cold, without warm-state
	// sharing, which the runner promises is bit-identical. Passes already
	// cover differing worker interleavings.
	ref := opts
	ref.ColdStart = true
	check(suitePass(ctx, ref, nil), "cold-start reference")
	res.digest = digestStrings(first)

	if o.trace {
		res.layers = map[string]float64{
			"workload.builds":       median(builds),
			"workload.build_s":      median(buildS),
			"trace.opens":           median(opens),
			"trace.records_read":    median(reads),
			"experiments.busy_s":    median(busy),
			"experiments.pool_util": median(busy) / (median(seconds(tracedWalls)) * float64(opts.Workers)),
		}
		for id, w := range expWalls {
			res.layers["experiments."+id+".wall_s"] = median(w)
		}
		if err := finishTraced(ctx, o, res, rec, tracedWalls, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}
