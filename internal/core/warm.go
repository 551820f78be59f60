package core

import (
	"context"
	"errors"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Warm-state cloning: the suite runner evaluates many BTB designs against
// one application trace, and every cold run repeats the same warmup work.
// During warmup (WrongPathLines == 0, the default core), the instruction
// caches and the direction predictor evolve identically for every design —
// they see only trace-order addresses and outcomes, never a BTB prediction.
// Only the BTB itself, the optional ITTAGE and the frontend lead/refill
// recurrence are design-private.
//
// WarmupContext therefore runs the shared structures over the warmup prefix
// exactly once per app, logging the tiny per-record outcomes a design needs
// (icache miss count, L2 miss, direction prediction). A warm session clones
// the warmed caches and TAGE (Clone on cache.Cache and predictor.TAGE) and
// then runs the ordinary Session.Apply → sim.step → bpu.predict path from
// record 0: over the prefix, fetch reads its outcome from the log and the
// direction predictor answers from it (logDir), so only design-private
// state does work. The RAS is cheap, so it simply runs live from empty.
// RunWarmContext is proven bit-identical to RunContext by
// TestWarmCloneOracle, which compares whole Result structs for every
// registered design; the periodic btb.Auditable deep checks run at the same
// record cadence on both paths because both are the same Apply loop.

// warmRec is the per-record outcome of the shared warmup pass: everything a
// warm session's prefix needs that it must not recompute.
type warmRec struct {
	misses uint16 // icache misses fetching the block
	flags  uint8  // warmL2Miss | warmDirPred
}

const (
	warmL2Miss  = 1 << iota // block's first fill came from beyond the L2
	warmDirPred             // direction predictor said taken
)

// WarmState is the warmed, design-independent frontend state of one
// (app, warmup-window) pair: caches, direction predictor, and the
// per-record replay log. It is immutable once WarmupContext returns —
// design runs only ever Clone the structures — so one WarmState may be
// shared by any number of concurrent NewWarmSession/RunWarmContext calls.
// The frozen analyzer enforces that immutability at compile time.
//
//pdede:frozen
type WarmState struct {
	base    Config // the canonical config the warmup ran under (BTB nil)
	seen    uint64 // instructions covered by the warm prefix
	records uint64 // records covered by the warm prefix (== len(recs))

	ic  *cache.Cache
	l2  *cache.Cache
	dir *predictor.TAGE

	recs []warmRec
}

// Records returns how many trace records the warm prefix covers.
func (w *WarmState) Records() uint64 { return w.records }

// Instructions returns how many instructions the warm prefix covers.
func (w *WarmState) Instructions() uint64 { return w.seen }

// WarmupCompatible reports whether a design config cfg can be served from a
// warm state built with base (nil = compatible). Incompatible designs — a
// custom direction predictor, different core parameters, the pipeline
// model, or wrong-path pollution (which feeds BTB predictions back into the
// shared caches) — must fall back to a cold RunContext.
func WarmupCompatible(base, cfg Config) error {
	switch {
	case cfg.UsePipeline:
		return errors.New("core: warm clone unavailable: the pipeline model has no warm replay")
	case cfg.Direction != nil:
		return errors.New("core: warm clone unavailable: custom direction predictor")
	case cfg.Params != base.Params:
		return errors.New("core: warm clone unavailable: core parameters differ from the warmed core")
	case cfg.Params.WrongPathLines != 0:
		return errors.New("core: warm clone unavailable: wrong-path pollution couples the caches to the BTB")
	case cfg.WarmupInstrs != base.WarmupInstrs:
		return errors.New("core: warm clone unavailable: warmup window differs")
	}
	return nil
}

// Compatible reports whether cfg can run from this warm state.
func (w *WarmState) Compatible(cfg Config) error { return WarmupCompatible(w.base, cfg) }

// WarmupContext runs the shared warmup pass: it drives the
// design-independent frontend structures over cfg's warmup prefix of src
// and records the per-record replay log. cfg is the canonical base
// configuration (cfg.BTB is ignored and may be nil); designs later check
// themselves against it with Compatible.
func WarmupContext(ctx context.Context, cfg Config, src trace.Source) (*WarmState, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := WarmupCompatible(cfg, cfg); err != nil {
		return nil, err
	}
	if cfg.WarmupInstrs == 0 {
		return nil, errors.New("core: warm clone unavailable: no warmup window")
	}
	dir, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.Params.ICacheBytes, cfg.Params.ICacheWays, cfg.Params.ICacheLineBytes)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.Params.L2Bytes, cfg.Params.L2Ways, cfg.Params.ICacheLineBytes)
	if err != nil {
		return nil, err
	}
	w := &WarmState{
		base: cfg,
		ic:   ic,
		l2:   l2,
		dir:  dir,
		recs: make([]warmRec, 0, cfg.WarmupInstrs/4),
	}
	err = drain(ctx, src.Open(), func(batch []isa.Branch) (int, bool, error) {
		n := 0
		for ; n < len(batch) && w.seen < cfg.WarmupInstrs; n++ {
			w.warmStep(batch[n])
		}
		return n, w.seen >= cfg.WarmupInstrs, nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// warmStep processes one warm-prefix record through the shared structures,
// mirroring the cold step's fetch and direction-predictor sequencing
// exactly: the caches see the block range through the same fetchBlock, and
// the direction predictor sees Predict then Update for every conditional.
func (w *WarmState) warmStep(b isa.Branch) {
	var rec warmRec
	misses, l2miss := fetchBlock(w.ic, w.l2, b)
	rec.misses = uint16(misses)
	if l2miss {
		rec.flags |= warmL2Miss
	}
	if b.Kind.IsConditional() {
		if w.dir.Predict(b.PC) {
			rec.flags |= warmDirPred
		}
		w.dir.Update(b.PC, b.Taken)
	}

	w.seen += uint64(b.BlockLen)
	w.records++
	w.recs = append(w.recs, rec)
}

// NewWarmSession builds a Session whose shared frontend state (caches,
// direction predictor) is deep-cloned from w instead of cold-constructed.
// The session replays the warm prefix by itself: callers Apply the trace
// from record 0, exactly as for a cold session, and get the cold result.
func NewWarmSession(cfg Config, w *WarmState, name string) (*Session, error) {
	if err := w.Compatible(cfg); err != nil {
		return nil, err
	}
	se, err := NewSession(cfg, name)
	if err != nil {
		return nil, err
	}
	s := se.sim
	s.ic = w.ic.Clone()
	s.l2 = w.l2.Clone()
	s.warm = w.recs
	s.bpu.dir = &logDir{TAGE: w.dir.Clone(), s: s}
	return se, nil
}

// logDir is a warm session's direction predictor. The shared pass already
// ran the TAGE over the warm prefix, so there Predict answers from the log
// and Update does nothing. The first prediction past the prefix hands the
// BPU the cloned TAGE, which holds exactly the post-prefix state, so the
// measured window pays no indirection.
type logDir struct {
	*predictor.TAGE
	s *sim
}

// Predict implements predictor.Direction.
func (d *logDir) Predict(pc addr.VA) bool {
	s := d.s
	if i := uint(s.warmPos); i < uint(len(s.warm)) {
		return s.warm[i].flags&warmDirPred != 0
	}
	s.bpu.dir = d.TAGE
	return d.TAGE.Predict(pc)
}

// Update implements predictor.Direction. After the hand-off in Predict the
// BPU updates the TAGE directly, so this only ever sees prefix records.
func (d *logDir) Update(addr.VA, bool) {}

// RunWarmContext is RunContext starting from a warm state: the session's
// shared frontend structures are cloned from w and the whole trace runs
// through the ordinary Session.Apply loop. The result is bit-identical to
// RunContext with the same cfg and src (see WarmupCompatible for when a
// design must fall back).
func RunWarmContext(ctx context.Context, cfg Config, src trace.Source, w *WarmState) (*Result, error) {
	se, err := NewWarmSession(cfg, w, src.Name())
	if err != nil {
		return nil, err
	}
	return se.runSource(ctx, src)
}
