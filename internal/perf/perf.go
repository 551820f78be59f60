// Package perf is the repository's benchmark-and-regression subsystem: it
// runs a fixed, seeded workload matrix (BTB designs × catalog apps × both
// core models) through the simulator, measures simulation throughput, and
// emits a schema-versioned JSON report that `pdede-bench -baseline` compares
// against a committed baseline to catch performance regressions in CI.
//
// The quantity under measurement is records/second of the per-record
// simulation loop (trace replay → BPU → cycle accounting): the paper's
// evaluation needs 102 apps × 100M+ warmup instructions (§5.1), so
// simulator throughput directly bounds how much of the evaluation each CI
// run can afford.
package perf

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SchemaVersion identifies the report layout. Comparisons refuse mismatched
// schemas: a schema bump means the measured quantities changed meaning.
const SchemaVersion = 1

// Model names the core model a measurement ran under.
const (
	ModelAnalytic = "analytic" // core.RunContext: analytic runahead model
	ModelPipeline = "pipeline" // core.Config.UsePipeline: event-timestamped model
)

// Spec fixes the benchmark matrix. The zero value is not runnable; use
// DefaultSpec (the committed-baseline matrix) or derive from it.
type Spec struct {
	// Apps is the number of catalog applications, sampled evenly across
	// the catalog so every Table 1 category stays represented.
	Apps int `json:"apps"`
	// TotalInstrs/WarmupInstrs are the per-app window (the warmup runs
	// with structures live but unmeasured, as in the experiments).
	TotalInstrs  uint64 `json:"total_instrs"`
	WarmupInstrs uint64 `json:"warmup_instrs"`
	// Reps is how many times each cell runs; the fastest rep is reported
	// (standard practice: the minimum is the least noisy estimator of the
	// true cost on a shared machine).
	Reps int `json:"reps"`
	// Models lists the core models to measure (default both).
	Models []string `json:"models"`
	// Designs names the design set; informational (the set is fixed by
	// BenchDesigns) but recorded so reports are self-describing.
	Designs []string `json:"designs"`
}

// DefaultSpec is the committed-baseline matrix: every comparison design ×
// 4 apps × both core models, 3 reps.
func DefaultSpec() Spec {
	s := Spec{
		Apps:         4,
		TotalInstrs:  1_000_000,
		WarmupInstrs: 400_000,
		Reps:         3,
		Models:       []string{ModelAnalytic, ModelPipeline},
	}
	for _, d := range BenchDesigns() {
		s.Designs = append(s.Designs, d.Name)
	}
	return s
}

// BenchDesigns is the design set under measurement: the Figure 11a ablation
// chain (baseline → dedup-only → partition-only → PDede → MT → ME) plus the
// Shotgun comparison point, covering every structurally distinct lookup
// path in the repository.
func BenchDesigns() []experiments.Design {
	designs := experiments.AblationDesigns()
	for _, d := range experiments.ShotgunDesigns() {
		if d.Name == experiments.NameShotgun {
			designs = append(designs, d)
		}
	}
	return designs
}

// Host fingerprints the machine a report was produced on. Throughput
// numbers are only comparable between identical-enough hosts; the
// comparator surfaces fingerprint differences as a warning.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost fingerprints the running machine.
func CurrentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Entry is one cell of the matrix: a (design, app, model) measurement.
type Entry struct {
	Design string `json:"design"`
	App    string `json:"app"`
	Model  string `json:"model"`

	// Records is the trace record (dynamic branch) count replayed per rep;
	// Instructions the instruction count those records represent.
	Records      uint64 `json:"records"`
	Instructions uint64 `json:"instructions"`

	// WallNS is the fastest rep's wall time for the simulation call alone
	// (trace synthesis and predictor construction excluded).
	WallNS int64 `json:"wall_ns"`
	// NSPerRecord and RecordsPerSec derive from WallNS/Records.
	NSPerRecord   float64 `json:"ns_per_record"`
	RecordsPerSec float64 `json:"records_per_sec"`

	// BytesPerOp/AllocsPerOp are the heap bytes and allocation count of
	// one simulation call (fastest rep): the core's own construction
	// (direction predictor, caches) plus the record loop, which the
	// zero-alloc optimizations keep flat with trace length. The BTB's
	// construction happens before the measured interval.
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// Key identifies an entry across reports.
func (e Entry) Key() string { return e.Design + "|" + e.App + "|" + e.Model }

// Report is the schema-versioned output of one benchmark run.
type Report struct {
	Schema    int     `json:"schema"`
	Generated string  `json:"generated,omitempty"` // RFC3339, informational
	Spec      Spec    `json:"spec"`
	Host      Host    `json:"host"`
	Entries   []Entry `json:"entries"`

	// Scaling is the optional worker-scaling curve of the parallel suite
	// runner (pdede-bench -scaling). Informational: the comparator gates on
	// Entries only, since the curve's shape is a property of the host's
	// core count, not of the code alone.
	Scaling []ScalingEntry `json:"scaling,omitempty"`
}

// Lookup returns the entry with the given key.
func (r *Report) Lookup(key string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Key() == key {
			return e, true
		}
	}
	return Entry{}, false
}

// Validate checks a decoded report's schema and internal consistency.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("perf: report schema %d, want %d", r.Schema, SchemaVersion)
	}
	seen := make(map[string]bool, len(r.Entries))
	for _, e := range r.Entries {
		if e.Design == "" || e.App == "" || e.Model == "" {
			return fmt.Errorf("perf: entry with empty key fields: %+v", e)
		}
		if seen[e.Key()] {
			return fmt.Errorf("perf: duplicate entry %q", e.Key())
		}
		seen[e.Key()] = true
		if e.Records == 0 || e.WallNS <= 0 {
			return fmt.Errorf("perf: entry %q has no measurement", e.Key())
		}
	}
	return nil
}

// sampleApps mirrors the experiment runner's even catalog sampling so the
// bench exercises the same app mix as the experiments.
func sampleApps(n int) []workload.Config {
	apps := workload.Catalog()
	if n <= 0 || n >= len(apps) {
		return apps
	}
	out := make([]workload.Config, 0, n)
	stride := float64(len(apps)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, apps[int(float64(i)*stride)])
	}
	return out
}

// Progress receives one line per completed matrix cell (nil = silent).
type Progress func(format string, args ...any)

// Run executes the matrix and returns the report. Traces are synthesized
// once per app and replayed for every (design, model, rep); the measured
// interval covers exactly the simulation call.
func Run(spec Spec, progress Progress) (*Report, error) {
	if spec.Reps <= 0 {
		spec.Reps = 1
	}
	if len(spec.Models) == 0 {
		spec.Models = []string{ModelAnalytic, ModelPipeline}
	}
	designs := BenchDesigns()
	apps := sampleApps(spec.Apps)

	rep := &Report{
		Schema:    SchemaVersion,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Spec:      spec,
		Host:      CurrentHost(),
	}

	for _, app := range apps {
		_, tr, err := workload.Build(app, spec.TotalInstrs)
		if err != nil {
			return nil, fmt.Errorf("perf: building %s: %w", app.Name, err)
		}
		records := uint64(len(tr.Records))
		instrs := tr.Instructions()
		for _, d := range designs {
			for _, model := range spec.Models {
				e, err := measure(d, app, tr, model, spec)
				if err != nil {
					return nil, fmt.Errorf("perf: %s/%s/%s: %w", d.Name, app.Name, model, err)
				}
				e.Records = records
				e.Instructions = instrs
				e.NSPerRecord = float64(e.WallNS) / float64(records)
				e.RecordsPerSec = float64(records) / (float64(e.WallNS) * 1e-9)
				rep.Entries = append(rep.Entries, e)
				if progress != nil {
					progress("%-22s %-28s %-8s %8.1f ns/rec %12.0f rec/s\n",
						d.Name, app.Name, model, e.NSPerRecord, e.RecordsPerSec)
				}
			}
		}
	}
	return rep, nil
}

// measure runs one matrix cell: Reps simulations, keeping the fastest.
func measure(d experiments.Design, app workload.Config, tr *trace.Memory, model string, spec Spec) (Entry, error) {
	e := Entry{Design: d.Name, App: app.Name, Model: model}
	for rep := 0; rep < spec.Reps; rep++ {
		tp, err := d.New()
		if err != nil {
			return e, err
		}
		cfg := core.Config{
			Params:       core.Icelake(),
			BackendCPI:   app.BackendCPI,
			BTB:          tp,
			WarmupInstrs: spec.WarmupInstrs,
		}
		if d.Mod != nil {
			d.Mod(&cfg)
		}
		cfg.UsePipeline = model == ModelPipeline

		var msBefore, msAfter runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		_, err = core.RunContext(context.Background(), cfg, tr)
		wall := time.Since(start)
		runtime.ReadMemStats(&msAfter)
		if err != nil {
			return e, err
		}

		if rep == 0 || wall.Nanoseconds() < e.WallNS {
			e.WallNS = wall.Nanoseconds()
			e.BytesPerOp = msAfter.TotalAlloc - msBefore.TotalAlloc
			e.AllocsPerOp = msAfter.Mallocs - msBefore.Mallocs
		}
	}
	return e, nil
}
