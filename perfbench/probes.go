package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/trace"
)

// serveStats carries what the isolated serve probes need from a serve run.
type serveStats struct {
	p50us       float64 // batch round trip, median
	meanJournal int     // records in a tenant's journal before a batch, mean
}

// probeTotals accumulates isolated-probe work and time over the replay apps.
type probeTotals struct {
	records                 float64
	btb                     []time.Duration
	btbOps, btbHits         []float64
	tage, itt, l1, l2, pdtz time.Duration
	tageOps, tageHits       float64
	l1Misses, l2Accesses    float64
	analytic, pipeline      time.Duration
	warmup, warmRun         time.Duration
	warmRecords             float64
}

// probeLayers measures each layer in isolation, from outside, by calling
// its public functions on the replay apps and on serve traffic, and fills
// layers with the per-layer metrics and the replay ledger. sv is nil when
// the run served no traffic.
func probeLayers(ctx context.Context, o options, layers map[string]float64, rec *recorder, sv *serveStats) error {
	var apps []replayApp
	buildT, err := medianOf(func() (time.Duration, error) {
		return since(func() (err error) {
			apps, err = buildReplayApps(o.seed)
			return err
		})
	})
	if err != nil {
		return err
	}

	designs := ledgerDesigns()
	tot := &probeTotals{
		btb:     make([]time.Duration, len(designs)),
		btbOps:  make([]float64, len(designs)),
		btbHits: make([]float64, len(designs)),
	}
	var costs []appCosts
	for _, a := range apps {
		c, err := probeApp(ctx, a, tot, rec)
		if err != nil {
			return fmt.Errorf("probing %s: %w", a.cfg.Name, err)
		}
		costs = append(costs, c)
	}

	r := tot.records
	layers["workload.ns_per_record"] = float64(buildT) / r
	layers["trace.pdtz_decode_ns_per_record"] = float64(tot.pdtz) / r
	for i, d := range designs {
		layers["btb."+d.Name+".ns_per_op"] = float64(tot.btb[i]) / tot.btbOps[i]
		layers["btb."+d.Name+".hit_rate"] = tot.btbHits[i] / tot.btbOps[i]
	}
	layers["predictor.tage.ns_per_op"] = float64(tot.tage) / tot.tageOps
	layers["predictor.tage.accuracy"] = tot.tageHits / tot.tageOps
	layers["predictor.ittage.ns_per_op"] = float64(tot.itt) / r
	layers["cache.l1i.ns_per_record"] = float64(tot.l1) / r
	layers["cache.l1i.miss_per_record"] = tot.l1Misses / r
	layers["cache.l2.ns_per_access"] = float64(tot.l2) / tot.l2Accesses
	layers["core.analytic.ns_per_record"] = float64(tot.analytic) / r
	layers["core.pipeline.ns_per_record"] = float64(tot.pipeline) / r
	layers["core.warmup.ns_per_record"] = float64(tot.warmup) / tot.warmRecords
	layers["core.warm_run.ns_per_record"] = float64(tot.warmRun) / r

	for _, c := range costs {
		fmt.Printf("ledger %-22s %s\n", c.name, ledgerOf(c))
	}
	l := ledgerOf(costs...)
	fmt.Printf("ledger %-22s %s\n", "replay apps", l)
	layers["core.self_ns_per_record"] = l.self
	layers["ledger.btb_ns_per_record"] = l.btb
	layers["ledger.tage_ns_per_record"] = l.tage
	layers["ledger.icache_ns_per_record"] = l.icache
	layers["ledger.sum_ns_per_record"] = l.sum
	layers["ledger.residual_ns_per_record"] = l.residual

	return probeServe(o, layers, sv)
}

// probeApp runs the isolated probes over one replay app.
func probeApp(ctx context.Context, a replayApp, tot *probeTotals, rec *recorder) (appCosts, error) {
	recs := a.mem.Records
	c := appCosts{name: a.cfg.Name, records: float64(len(recs))}
	tot.records += c.records
	baseline := ledgerDesigns()[0]

	// The streams the core sends the BTB and the direction predictor,
	// recorded from a baseline cell.
	cfg, err := cellConfig(a.cfg, baseline)
	if err != nil {
		return c, err
	}
	tage, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
	if err != nil {
		return c, err
	}
	rb := &recordingBTB{TargetPredictor: cfg.BTB}
	rd := &recordingDirection{Direction: tage}
	cfg.BTB, cfg.Direction = rb, rd
	if _, err := core.RunContext(ctx, cfg, a.mem); err != nil {
		return c, err
	}
	if err := pairedStreams(rb, rd); err != nil {
		return c, err
	}

	for i, d := range ledgerDesigns() {
		var hits int
		t, err := medianOf(func() (time.Duration, error) {
			tp, err := d.New()
			if err != nil {
				return 0, err
			}
			hits = 0
			start := time.Now()
			for _, b := range rb.stream {
				l := tp.Lookup(b.PC)
				if l.Hit && l.Target == b.Target {
					hits++
				}
				tp.Update(b, l)
			}
			return time.Since(start), nil
		})
		if err != nil {
			return c, err
		}
		tot.btb[i] += t
		tot.btbOps[i] += float64(len(rb.stream))
		tot.btbHits[i] += float64(hits)
		if i == 0 {
			c.btb = t
		}
	}

	var hits int
	if c.tage, err = medianOf(func() (time.Duration, error) {
		t, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
		if err != nil {
			return 0, err
		}
		hits = 0
		start := time.Now()
		for _, op := range rd.stream {
			if t.Predict(op.pc) == op.taken {
				hits++
			}
			t.Update(op.pc, op.taken)
		}
		return time.Since(start), nil
	}); err != nil {
		return c, err
	}
	tot.tage += c.tage
	tot.tageOps += float64(len(rd.stream))
	tot.tageHits += float64(hits)

	// ITTAGE as the core drives it when a design enables it (sec56):
	// predict non-return indirects, train taken indirects, observe every
	// branch.
	itt, err := medianOf(func() (time.Duration, error) {
		it, err := predictor.NewITTAGE(predictor.Default64KBConfig())
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, b := range recs {
			if b.Kind.IsIndirect() && !b.Kind.IsReturn() {
				it.Predict(b.PC)
			}
			if b.Kind.IsIndirect() && b.Taken {
				it.Update(b.PC, b.Target)
			}
			it.Observe(b.Taken)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return c, err
	}
	tot.itt += itt

	// I-cache then L2, on the core's access sequence: every block through
	// the L1I, the blocks that missed through the L2.
	p := core.Icelake()
	missed := make([]int32, 0, len(recs))
	var misses int
	if c.l1i, err = medianOf(func() (time.Duration, error) {
		ic, err := cache.New(p.ICacheBytes, p.ICacheWays, p.ICacheLineBytes)
		if err != nil {
			return 0, err
		}
		missed, misses = missed[:0], 0
		start := time.Now()
		for i, b := range recs {
			if m := ic.AccessRange(blockStart(b), b.PC); m > 0 {
				misses += m
				missed = append(missed, int32(i))
			}
		}
		return time.Since(start), nil
	}); err != nil {
		return c, err
	}
	if c.l2, err = medianOf(func() (time.Duration, error) {
		l2, err := cache.New(p.L2Bytes, p.L2Ways, p.ICacheLineBytes)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, i := range missed {
			l2.AccessRange(blockStart(recs[i]), recs[i].PC)
		}
		return time.Since(start), nil
	}); err != nil {
		return c, err
	}
	tot.l1 += c.l1i
	tot.l2 += c.l2
	tot.l1Misses += float64(misses)
	tot.l2Accesses += float64(len(missed))

	// .pdtz decode through BlockReader.NextBatch.
	var enc bytes.Buffer
	if err := trace.WritePdtz(&enc, a.mem.Name(), a.mem.Open()); err != nil {
		return c, err
	}
	z, err := trace.ParsePdtz(enc.Bytes())
	if err != nil {
		return c, err
	}
	buf := make([]isa.Branch, 4096)
	pdtz, err := medianOf(func() (time.Duration, error) {
		return since(func() error {
			n, err := drain(z.Open(), buf)
			if err == nil && n != len(recs) {
				err = fmt.Errorf("pdtz decoded %d records, want %d", n, len(recs))
			}
			return err
		})
	})
	if err != nil {
		return c, err
	}
	tot.pdtz += pdtz

	// The core models, cold, on the in-memory trace.
	cell := func(run func(core.Config) error) (time.Duration, error) {
		return medianOf(func() (time.Duration, error) {
			cfg, err := cellConfig(a.cfg, baseline)
			if err != nil {
				return 0, err
			}
			return since(func() error { return run(cfg) })
		})
	}
	if c.analytic, err = cell(func(cfg core.Config) error {
		_, err := core.RunContext(ctx, cfg, a.mem)
		return err
	}); err != nil {
		return c, err
	}
	pipe, err := cell(func(cfg core.Config) error {
		_, err := core.RunPipelineContext(ctx, cfg, a.mem)
		return err
	})
	if err != nil {
		return c, err
	}
	tot.analytic += c.analytic
	tot.pipeline += pipe

	// The suite's shared warmup pass, and a cell replayed from it.
	base := core.Config{Params: core.Icelake(), BackendCPI: a.cfg.BackendCPI, WarmupInstrs: replayWarmup}
	var warm *core.WarmState
	wt, err := medianOf(func() (time.Duration, error) {
		return since(func() (err error) {
			warm, err = core.WarmupContext(ctx, base, a.mem)
			return err
		})
	})
	if err != nil {
		return c, err
	}
	wr, err := cell(func(cfg core.Config) error {
		_, err := core.RunWarmContext(ctx, cfg, a.mem, warm)
		return err
	})
	if err != nil {
		return c, err
	}
	tot.warmup += wt
	tot.warmRecords += float64(warm.Records())
	tot.warmRun += wr

	// The core's self time: a traced baseline cell minus the part its
	// sampled BTB and direction spans cover.
	clock := clockCost(rec)
	if c.tracedSelf, err = medianOf(func() (time.Duration, error) {
		cfg, err := cellConfig(a.cfg, baseline)
		if err != nil {
			return 0, err
		}
		sp := rec.begin("probe "+a.cfg.Name, "probe", 0)
		if err := decorate(&cfg, rec, sp.id(), sampleEvery); err != nil {
			return 0, err
		}
		_, err = core.RunContext(ctx, cfg, a.mem)
		sp.end()
		if err != nil {
			return 0, err
		}
		var cell span
		var kids []span
		for _, s := range rec.finished() {
			switch {
			case s.ID == sp.id():
				cell = s
			case s.Parent == sp.id():
				kids = append(kids, s)
			}
		}
		return splitCell(cell, kids, sampleEvery, clock).self, nil
	}); err != nil {
		return c, err
	}
	return c, nil
}

// probeServe times the stages of one serve batch in isolation on one
// tenant's traffic: client-side PDT encode, server-side decode, the
// session apply and the ack digest; and, after a serve run, the remainder
// of the round trip and the cost of rebuilding a shed tenant.
func probeServe(o options, layers map[string]float64, sv *serveStats) error {
	cfg, err := serveConfig()
	if err != nil {
		return err
	}
	n := serveSpec.batches * serveBatchRecords
	journal := 0
	if sv != nil {
		journal = sv.meanJournal
	}
	recs, err := tenantRecords(o.seed, 0, max(n, journal))
	if err != nil {
		return err
	}
	const name = "t00"
	var batches [][]isa.Branch
	for k := 0; k+serveBatchRecords <= n; k += serveBatchRecords {
		batches = append(batches, recs[k:k+serveBatchRecords])
	}
	nb := float64(len(batches))
	encodeTo := func(buf *bytes.Buffer, b []isa.Branch) error {
		return trace.Write(buf, name, (&trace.Memory{TraceName: name, Records: b}).Open())
	}

	var buf bytes.Buffer
	enc, err := medianOf(func() (time.Duration, error) {
		return since(func() error {
			for _, b := range batches {
				buf.Reset()
				if err := encodeTo(&buf, b); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	var encoded [][]byte
	for _, b := range batches {
		var e bytes.Buffer
		if err := encodeTo(&e, b); err != nil {
			return err
		}
		encoded = append(encoded, e.Bytes())
	}
	dec, err := medianOf(func() (time.Duration, error) {
		return since(func() error {
			for _, e := range encoded {
				d, err := trace.NewDecoder(bytes.NewReader(e))
				if err != nil {
					return err
				}
				if _, err := trace.Collect(name, d); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}

	var applies, digests []float64
	for i := 0; i < probeReps; i++ {
		se, err := cfg.NewSession(name)
		if err != nil {
			return err
		}
		var at, dt time.Duration
		for _, b := range batches {
			t0 := time.Now()
			if _, _, err := se.Apply(b); err != nil {
				return err
			}
			t1 := time.Now()
			snap := se.Snapshot()
			_ = serve.ResultDigest(&snap)
			at += t1.Sub(t0)
			dt += time.Since(t1)
		}
		applies = append(applies, float64(at))
		digests = append(digests, float64(dt))
	}
	apply, digest := median(applies), median(digests)

	us := func(ns float64) float64 { return ns / 1e3 }
	layers["serve.encode_us_per_batch"] = us(float64(enc) / nb)
	layers["serve.decode_us_per_batch"] = us(float64(dec) / nb)
	layers["serve.apply_us_per_batch"] = us(apply / nb)
	layers["serve.digest_us_per_batch"] = us(digest / nb)
	layers["trace.pdt_decode_ns_per_record"] = float64(dec) / float64(n)
	layers["core.session_apply_ns_per_record"] = apply / float64(n)
	if sv == nil {
		return nil
	}
	layers["serve.other_us_per_batch"] = sv.p50us - layers["serve.encode_us_per_batch"] -
		layers["serve.decode_us_per_batch"] - layers["serve.apply_us_per_batch"] - layers["serve.digest_us_per_batch"]
	if journal > 0 {
		rebuild, err := medianOf(func() (time.Duration, error) {
			return since(func() error {
				se, err := cfg.NewSession(name)
				if err != nil {
					return err
				}
				_, _, err = se.Apply(recs[:journal])
				return err
			})
		})
		if err != nil {
			return err
		}
		layers["serve.rebuild_us_per_restore"] = us(float64(rebuild))
	}
	return nil
}
