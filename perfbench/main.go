// Command perfbench is the repository's benchmark of record. One run
// measures one workload for a fixed time and prints, as its last line, a
// JSON object with the output check ("correct"), the operations attempted
// and failed, and the metrics: the end-to-end metrics untraced
// (-trace 0), or the per-layer ledger from a traced run (-trace 1).
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0
//
// run.py builds this package into .bench_build and runs it with the same
// arguments. See README.md for the workloads, the metrics and what each
// should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // scratch files and trace output, inside the checkout
	expected string // per-seed expected output digests
	record   bool   // store this run's digest as the expected one
}

// result is what a workload hands back to be reported.
type result struct {
	// setup holds one duration per repetition of the workload's set-up.
	setup []time.Duration
	// passes holds the host wall time of each fixed-size measured pass.
	passes []time.Duration
	// segs holds each untraced pass's segments in order: the same work at
	// the same position in every pass.
	segs [][]segment
	// heapMB is the Go heap still live after the measured passes.
	heapMB float64
	// passRecords/passInstrs are the records and instructions one pass
	// processes, fixed by the workload definition.
	passRecords, passInstrs uint64
	attempted, failed       int
	// digest fingerprints the pass's simulated output; every pass must
	// produce the same one.
	digest string
	// layers is the per-layer ledger of a traced run.
	layers map[string]float64
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(ctx context.Context, o options) (*result, error)
}

var workloads = []workloadDef{
	{"suite", runSuite},
	{"replay", runReplay},
	{"serve", runServe},
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: suite, replay or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the program under test sees only the inputs generated from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and the trace-event file")
	flag.StringVar(&o.expected, "expected", filepath.Join("perfbench", "expected.json"), "per-seed expected output digests")
	flag.BoolVar(&o.record, "record", false, "store this run's output digest in -expected (after every other check passed)")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() != 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload W -seed N -seconds S -trace 0|1")
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Every workload runs on one P. Its passes are sequential, so the
	// fastest repetitions of their slices add up, and the collector works
	// on the same CPU as the program instead of on a second vCPU whose
	// neighbours come and go.
	runtime.GOMAXPROCS(1)
	host := hostFingerprint(o.seed)
	hj, _ := json.Marshal(host) // a map of strings and ints always marshals
	fmt.Printf("host %s\n", hj)

	// A run must end within a few minutes even when the program under test
	// hangs or crawls; past the deadline the simulations and requests fail.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := def.run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	correct := res.failed == 0
	want, known, err := expectedDigest(o.expected, o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	switch {
	case known && want != res.digest:
		fmt.Printf("check: output digest %s, expected %s for seed %d: FAILED\n", res.digest, want, o.seed)
		correct = false
		res.failed = res.attempted
	case known:
		fmt.Printf("check: output digest %s matches the expected digest for seed %d\n", res.digest, o.seed)
	default:
		fmt.Printf("check: output digest %s (no expected digest recorded for seed %d; checked against the in-run reference only)\n", res.digest, o.seed)
	}
	if o.record && correct {
		if err := recordDigest(o.expected, o.workload, o.seed, res.digest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	var metrics map[string]metric
	if o.trace {
		metrics = layerMetrics(res.layers)
	} else {
		metrics = endToEnd(res)
	}
	printHuman(o, res, metrics)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// segment is a fixed part of a measured pass, timed on its own: a slice
// of a cell between two batch reads (replay), of an experiment between two
// builds or batch reads (suite), or one batch of the closed loop (serve).
// An operation — a cell, an experiment or a batch — is a run of
// consecutive segments; its last one has ends set.
type segment struct {
	wall time.Duration
	ends bool
}

// quietest assembles a run's quietest pass: every segment at its fastest
// repetition. It returns that pass's wall time and the latency of each of
// its operations, the sum of the operation's segments. The host is shared
// and its speed drifts by tens of percent over seconds to minutes; the
// fastest repetition is the cost when the neighbours were quiet, and that
// is what stays comparable from run to run. Every pass has the same
// segments in the same order.
func quietest(passes [][]segment) (wall time.Duration, ops []time.Duration) {
	if len(passes) == 0 {
		return 0, nil
	}
	best := append([]segment(nil), passes[0]...)
	for _, p := range passes[1:] {
		for i, sg := range p[:min(len(p), len(best))] {
			best[i].wall = min(best[i].wall, sg.wall)
		}
	}
	var op time.Duration
	for _, sg := range best {
		wall += sg.wall
		op += sg.wall
		if sg.ends {
			ops = append(ops, op)
			op = 0
		}
	}
	return wall, ops
}

// endToEnd derives the end-to-end metrics every workload reports, from the
// run's quietest pass (see quietest).
func endToEnd(res *result) map[string]metric {
	w, ops := quietest(res.segs)
	wall := w.Seconds()
	lat := millis(ops)
	return map[string]metric{
		"setup_s":       {median(seconds(res.setup)), "s"},
		"wall_s":        {wall, "s"},
		"sim_mips":      {float64(res.passInstrs) / wall / 1e6, "MIPS"},
		"records_per_s": {float64(res.passRecords) / wall, "1/s"},
		"batch_p50_ms":  {percentile(lat, 0.50), "ms"},
		"batch_p99_ms":  {percentile(lat, 0.99), "ms"},
		"live_heap_mb":  {res.heapMB, "MB"},
	}
}

// printHuman prints every metric by name with its unit, then the error
// rate, ahead of the result line.
func printHuman(o options, res *result, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("metric %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rate := 0.0
	if res.attempted > 0 {
		rate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("metric %-44s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", rate, res.failed, res.attempted)
	fmt.Printf("metric %-44s %14.6g MB (peak resident set, set-up included; informational, see live_heap_mb)\n", "peak_rss_mb", peakRSSMB())
	if !o.trace {
		segs := 0
		if len(res.segs) > 0 {
			segs = len(res.segs[0])
		}
		w, ops := quietest(res.segs)
		fmt.Printf("samples: %d set-ups, %d passes of %d segments, %d operations per pass\n",
			len(res.setup), len(res.passes), segs, len(ops))
		fmt.Printf("pass walls (s): median %.3f, spread %.3f, quietest pass %.3f: %.3f\n",
			median(seconds(res.passes)), spread(seconds(res.passes)), w.Seconds(), seconds(res.passes))
	}
}

// hostFingerprint identifies the machine and inputs a result came from.
func hostFingerprint(seed uint64) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       seed,
	}
}

// nproc bounds every pool, client count and connection count.
func nproc() int { return runtime.GOMAXPROCS(0) }

// liveHeapMB is the Go heap still live after a full collection, in MiB:
// what the workload keeps between passes — its inputs, caches and
// set-up — without the transient garbage whose peak follows the
// collector's timing.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs pass until at least d has elapsed and at least minPasses
// passes ran, returning the wall time each pass reports for its measured
// part.
func measure(d time.Duration, minPasses int, pass func() (time.Duration, error)) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for len(walls) < minPasses || time.Since(start) < d {
		w, err := pass()
		if err != nil {
			return walls, err
		}
		walls = append(walls, w)
	}
	return walls, nil
}

// phases runs a workload's measured phase. Untraced, untraced passes repeat
// for the whole budget. Traced, they repeat for half of it, then
// tracedPasses traced passes record spans into rec.
func phases(o options, untraced func() (time.Duration, error), traced func(*recorder) (time.Duration, error)) (passes, tracedWalls []time.Duration, rec *recorder, err error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		passes, err = measure(budget, 3, untraced)
		return passes, nil, nil, err
	}
	if passes, err = measure(budget/2, 1, untraced); err != nil {
		return nil, nil, nil, err
	}
	rec = newRecorder()
	tracedWalls, err = measure(0, tracedPasses, func() (time.Duration, error) { return traced(rec) })
	return passes, tracedWalls, rec, err
}

// finishTraced completes a traced run's ledger — the tracing overhead and
// the isolated layer probes — and writes its spans.
func finishTraced(ctx context.Context, o options, res *result, rec *recorder, tracedWalls []time.Duration, sv *serveStats) error {
	res.layers["tracing.overhead_s"] = median(seconds(tracedWalls)) - median(seconds(res.passes))
	if err := probeLayers(ctx, o, res.layers, rec, sv); err != nil {
		return err
	}
	return writeTrace(o, rec)
}

// tracedPasses is how many traced passes a traced run makes after its
// untraced ones.
const tracedPasses = 3

// repeatSetup runs a workload's set-up n times, returning every duration
// and the last set-up's value, which the run keeps. Earlier values are
// released through release before the next repetition.
func repeatSetup[T any](n int, setup func() (T, error), release func(T)) (T, []time.Duration, error) {
	var (
		v     T
		times []time.Duration
	)
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(v)
		}
		t := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, times, err
		}
		times = append(times, time.Since(t))
	}
	return v, times, nil
}

// writeTrace writes the run's spans as a trace-event file in the output
// directory.
func writeTrace(o options, rec *recorder) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := writeChromeTrace(path, rec.finished(), hostFingerprint(o.seed)); err != nil {
		return err
	}
	fmt.Printf("trace: wrote %s\n", path)
	return nil
}

// runDeadline bounds a whole run, well inside the three minutes a run may
// take.
const runDeadline = 150 * time.Second

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 9

// digestStrings fingerprints an ordered list of strings.
func digestStrings(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// expectedDigest looks up the recorded digest for (workload, seed).
func expectedDigest(path, workload string, seed uint64) (string, bool, error) {
	table, err := loadExpected(path)
	if err != nil {
		return "", false, err
	}
	d, ok := table[workload][strconv.FormatUint(seed, 10)]
	return d, ok, nil
}

func loadExpected(path string) (map[string]map[string]string, error) {
	table := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return table, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &table); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return table, nil
}

func recordDigest(path, workload string, seed uint64, digest string) error {
	table, err := loadExpected(path)
	if err != nil {
		return err
	}
	if table[workload] == nil {
		table[workload] = map[string]string{}
	}
	table[workload][strconv.FormatUint(seed, 10)] = digest
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
