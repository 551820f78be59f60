package core

import (
	"context"
	"errors"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/trace"
)

// The shared frontend log: the suite runner evaluates many BTB designs
// against one application trace. Without wrong-path pollution
// (WrongPathLines == 0, the default core) the instruction cache, the L2 and
// the default direction predictor see only trace-order addresses and
// outcomes, never a BTB prediction, so they evolve identically in every
// design cell of an app — over the warmup and the measured window alike.
// Only the BTB, the RAS, the optional ITTAGE and the models' cycle
// accounting (the analytic lead/refill recurrence, the pipeline's
// timestamps) are design-private.
//
// WarmupContext therefore runs the shared structures over the whole trace
// exactly once per app and logs each record's outcome (icache miss count,
// L2 miss, direction prediction) in 4 bytes. A logged session builds no
// caches and no TAGE: both core models fetch from the log and the direction
// predictor answers from it (logDir), through the ordinary Session.Apply →
// step → bpu.predict path, so only design-private state does work. The log
// depends on nothing but the cache geometry and the default TAGE, and holds
// only without wrong-path pollution: exactly what WarmupCompatible checks.
// Everything else is a per-session setting. RunWarmContext is proven bit-identical to RunContext by
// TestWarmCloneOracle, which compares whole Result structs for every
// registered design; the periodic btb.Auditable deep checks run at the same
// record cadence on both paths because both are the same Apply loop.

// warmRec is one record's outcome in the shared frontend: everything a
// logged session reads instead of recomputing.
type warmRec struct {
	misses uint16 // icache misses fetching the block
	flags  uint8  // warmL2Miss | warmDirPred
}

const (
	warmL2Miss  = 1 << iota // block's first fill came from beyond the L2
	warmDirPred             // direction predictor said taken
)

// WarmState is the design-independent frontend of one app trace: the
// per-record log of its caches and direction predictor over the whole
// trace. It is immutable once WarmupContext returns, so one WarmState may be
// shared by any number of concurrent NewWarmSession/RunWarmContext calls.
// The frozen analyzer enforces that immutability at compile time.
//
//pdede:frozen
type WarmState struct {
	base Config    // the config the shared pass ran under (BTB nil)
	seen uint64    // instructions the log covers
	recs []warmRec // one entry per trace record, never nil
}

// Records returns how many trace records the log covers.
func (w *WarmState) Records() uint64 { return uint64(len(w.recs)) }

// Instructions returns how many instructions the log covers.
func (w *WarmState) Instructions() uint64 { return w.seen }

// WarmupCompatible reports whether a design config cfg can be served from a
// log built with base (nil = compatible). The log depends only on the
// instruction-cache and L2 geometry and on the default direction
// predictor, and it holds only while nothing the BTB predicts reaches the
// caches: a custom direction predictor or wrong-path pollution must fall
// back to a cold RunContext. Pipeline depth and width, the fetch queue,
// latencies, the RAS, the core model and the warmup/measure windows are all
// per-session settings.
func WarmupCompatible(base, cfg Config) error {
	b, c := &base.Params, &cfg.Params
	switch {
	case c.ICacheBytes != b.ICacheBytes || c.ICacheWays != b.ICacheWays || c.ICacheLineBytes != b.ICacheLineBytes:
		return errors.New("core: shared frontend log unavailable: icache geometry differs from the logged core")
	case c.L2Bytes != b.L2Bytes || c.L2Ways != b.L2Ways:
		return errors.New("core: shared frontend log unavailable: L2 geometry differs from the logged core")
	case c.WrongPathLines != 0:
		return errors.New("core: shared frontend log unavailable: wrong-path pollution couples the caches to the BTB")
	case cfg.Direction != nil:
		return errors.New("core: shared frontend log unavailable: custom direction predictor")
	}
	return nil
}

// Compatible reports whether cfg can run from this log.
func (w *WarmState) Compatible(cfg Config) error { return WarmupCompatible(w.base, cfg) }

// WarmupContext runs the shared frontend pass: it drives the
// design-independent structures over every record of src and logs each
// record's outcome. cfg is the base configuration (cfg.BTB is ignored and
// may be nil); designs later check themselves against it with Compatible.
func WarmupContext(ctx context.Context, cfg Config, src trace.Source) (*WarmState, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := WarmupCompatible(cfg, cfg); err != nil {
		return nil, err
	}
	// The pass runs a cold frontend's caches, direction predictor and fetch
	// code; nothing else of a session is needed.
	fe := &frontend{cfg: cfg}
	if err := fe.initCold(); err != nil {
		return nil, err
	}
	recs := make([]warmRec, 0, recordBatch)
	var seen uint64
	err := drain(ctx, src.Open(), func(batch []isa.Branch) (int, bool, error) {
		for _, b := range batch {
			recs = append(recs, fe.logStep(b))
			seen += uint64(b.BlockLen)
		}
		return len(batch), false, nil
	})
	if err != nil {
		return nil, err
	}
	return &WarmState{base: cfg, seen: seen, recs: recs}, nil
}

// logStep runs one record through a cold frontend's shared structures,
// mirroring a cold step's fetch and direction-predictor sequencing exactly
// — the caches see the block range through the same fetch, and the
// direction predictor sees Predict then Update for every conditional — and
// returns its log entry.
func (f *frontend) logStep(b isa.Branch) warmRec {
	misses, l2miss := f.fetch(b)
	rec := warmRec{misses: uint16(misses)}
	if l2miss {
		rec.flags |= warmL2Miss
	}
	if b.Kind.IsConditional() {
		if f.bpu.dir.Predict(b.PC) {
			rec.flags |= warmDirPred
		}
		f.bpu.dir.Update(b.PC, b.Taken)
	}
	return rec
}

// NewWarmSession builds a Session of either core model that reads its
// caches and direction predictor from w's log instead of simulating them:
// it allocates no cache or TAGE. Callers Apply the trace w was built from,
// from record 0, exactly as for a cold session, and get the cold result;
// applying a record past the end of the log is an error.
func NewWarmSession(cfg Config, w *WarmState, name string) (*Session, error) {
	if err := w.Compatible(cfg); err != nil {
		return nil, err
	}
	return newSession(cfg, name, w.recs)
}

// logDir is a logged session's direction predictor, a plain reader of the
// log: Predict answers with the shared pass's prediction for the record
// being stepped, and Update does nothing because the shared pass already
// trained the TAGE.
type logDir struct{ f *frontend }

// Name implements predictor.Direction.
func (logDir) Name() string { return "tage-log" }

// Predict implements predictor.Direction. Session.Apply never steps a
// record past the log, so the bound test only spares a bounds check.
func (d logDir) Predict(addr.VA) bool {
	i, log := uint(d.f.logPos), d.f.log
	return i < uint(len(log)) && log[i].flags&warmDirPred != 0
}

// Update implements predictor.Direction.
func (logDir) Update(addr.VA, bool) {}

// StorageBits implements predictor.Direction: the log is not hardware.
func (logDir) StorageBits() uint64 { return 0 }

// Reset implements predictor.Direction. The log is immutable.
func (logDir) Reset() {}

// RunWarmContext is RunContext reading the design-independent frontend
// from w's log: only the design-private structures run, through the
// ordinary Session.Apply loop. The result is bit-identical to RunContext
// with the same cfg and src (see WarmupCompatible for when a design must
// fall back).
func RunWarmContext(ctx context.Context, cfg Config, src trace.Source, w *WarmState) (*Result, error) {
	se, err := NewWarmSession(cfg, w, src.Name())
	if err != nil {
		return nil, err
	}
	return se.runSource(ctx, src)
}
