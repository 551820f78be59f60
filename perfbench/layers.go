package main

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/perf"
)

// probeReps is how many times each isolated probe repeats; the median wins.
const probeReps = 3

// ledgerDesigns are the designs the BTB probes replay: the bench set (the
// Figure 11a chain and Shotgun) plus the two-level hierarchy.
func ledgerDesigns() []experiments.Design {
	ds := perf.BenchDesigns()
	if d, ok := experiments.DesignByName("2L-pdede-me"); ok {
		ds = append(ds, d)
	}
	return ds
}

// layerUnit is one per-layer metric name and its unit.
type layerUnit struct{ name, unit string }

// layerCatalog lists every per-layer metric a traced run reports.
func layerCatalog() []layerUnit {
	l := []layerUnit{
		{"workload.builds", "count"},
		{"workload.build_s", "s"},
		{"workload.ns_per_record", "ns"},
		{"trace.pdtz_decode_ns_per_record", "ns"},
		{"trace.pdt_decode_ns_per_record", "ns"},
		{"trace.opens", "count"},
		{"trace.records_read", "count"},
	}
	for _, d := range ledgerDesigns() {
		l = append(l, layerUnit{"btb." + d.Name + ".ns_per_op", "ns"}, layerUnit{"btb." + d.Name + ".hit_rate", "ratio"})
	}
	l = append(l,
		layerUnit{"predictor.tage.ns_per_op", "ns"},
		layerUnit{"predictor.tage.accuracy", "ratio"},
		layerUnit{"predictor.ittage.ns_per_op", "ns"},
		layerUnit{"cache.l1i.ns_per_record", "ns"},
		layerUnit{"cache.l1i.miss_per_record", "ratio"},
		layerUnit{"cache.l2.ns_per_access", "ns"},
		layerUnit{"core.analytic.ns_per_record", "ns"},
		layerUnit{"core.pipeline.ns_per_record", "ns"},
		layerUnit{"core.self_ns_per_record", "ns"},
		layerUnit{"core.warmup.ns_per_record", "ns"},
		layerUnit{"core.warm_run.ns_per_record", "ns"},
		layerUnit{"core.session_apply_ns_per_record", "ns"},
		layerUnit{"ledger.btb_ns_per_record", "ns"},
		layerUnit{"ledger.tage_ns_per_record", "ns"},
		layerUnit{"ledger.icache_ns_per_record", "ns"},
		layerUnit{"ledger.sum_ns_per_record", "ns"},
		layerUnit{"ledger.residual_ns_per_record", "ns"},
	)
	for _, e := range experiments.All() {
		l = append(l, layerUnit{"experiments." + e.ID + ".wall_s", "s"})
	}
	l = append(l,
		layerUnit{"experiments.busy_s", "s"},
		layerUnit{"experiments.pool_util", "ratio"},
		layerUnit{"serve.encode_us_per_batch", "us"},
		layerUnit{"serve.decode_us_per_batch", "us"},
		layerUnit{"serve.apply_us_per_batch", "us"},
		layerUnit{"serve.digest_us_per_batch", "us"},
		layerUnit{"serve.other_us_per_batch", "us"},
		layerUnit{"serve.shed", "count"},
		layerUnit{"serve.restores", "count"},
		layerUnit{"serve.checkpoints", "count"},
		layerUnit{"serve.rebuild_us_per_restore", "us"},
		layerUnit{"serve.backpressure", "count"},
		layerUnit{"serve.duplicates", "count"},
		layerUnit{"tracing.overhead_s", "s"},
	)
	return l
}

// layerMetrics reports every per-layer metric. A layer the workload does
// not exercise reads 0: no experiments run in replay, nothing is shed in
// serve.
func layerMetrics(layers map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, l := range layerCatalog() {
		out[l.name] = metric{layers[l.name], l.unit}
	}
	return out
}

// medianOf runs f probeReps times and returns the median of the durations
// it reports; f times only its measured part, so set-up such as building a
// fresh predictor stays out.
func medianOf(f func() (time.Duration, error)) (time.Duration, error) {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ts = append(ts, float64(d))
	}
	return time.Duration(median(ts)), nil
}

// since times f.
func since(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

// appCosts are one replay app's isolated layer costs, as totals.
type appCosts struct {
	name                 string
	records              float64
	btb                  time.Duration // baseline-4K Lookup+Update over the stream
	tage                 time.Duration
	l1i, l2              time.Duration
	analytic, tracedSelf time.Duration
}

// ledger is the replay ledger row: isolated costs against the measured
// analytic core, per record.
type ledger struct {
	btb, tage, icache, self, sum, measured, residual float64
}

// ledgerOf sums costs (one app or several) into a ledger row. The core's
// own time is the traced cell's self time (the cell span minus its sampled
// BTB and direction children) less the isolated I-cache cost, which the
// decorators do not cover.
func ledgerOf(costs ...appCosts) ledger {
	var recs float64
	var btbT, tageT, ic, an, self time.Duration
	for _, c := range costs {
		recs += c.records
		btbT += c.btb
		tageT += c.tage
		ic += c.l1i + c.l2
		an += c.analytic
		self += c.tracedSelf
	}
	per := func(d time.Duration) float64 { return float64(d) / recs }
	l := ledger{btb: per(btbT), tage: per(tageT), icache: per(ic), measured: per(an)}
	l.self = per(self) - l.icache
	l.sum = l.btb + l.tage + l.icache + l.self
	l.residual = l.measured - l.sum
	return l
}

func (l ledger) String() string {
	return fmt.Sprintf("btb %.1f + tage %.1f + icache %.1f + core self %.1f = %.1f ns/record; measured analytic %.1f; residual %.1f",
		l.btb, l.tage, l.icache, l.self, l.sum, l.measured, l.residual)
}

// blockStart is the first instruction of the basic block ending in b, as
// the core fetches it.
func blockStart(b isa.Branch) addr.VA { return b.PC.Add(-uint64(b.BlockLen-1) * isa.InstrBytes) }
