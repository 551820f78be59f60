package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// recordBatch is drain's decode-buffer size: the trace is pulled in batches
// of this many records (trace.ReadBatch), which amortizes Reader interface
// dispatch, and the context is checked once per batch.
const recordBatch = 1 << 12

// checkCtx returns the context's error, wrapped with simulation progress,
// when the context is done.
func checkCtx(ctx context.Context, records uint64) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: simulation stopped after %d records: %w", records, err)
	}
	return nil
}

// serializeFrac is the share of a multi-cycle BTB lookup's extra latency
// that the taken-branch recurrence exposes as lost BPU throughput; the rest
// is overlapped by next-block prediction (§5.4's decoupled-frontend
// argument). Calibrated so that the always-2-cycle configuration costs
// about one point of IPC gain, as the paper measures.
const serializeFrac = 0.3

// Config assembles one simulation: a core, a branch-prediction unit, and
// the windowing methodology (warmup then measure, per §5.1).
type Config struct {
	Params Params

	// BackendCPI is the cycles-per-instruction the backend would sustain
	// with a perfect frontend (per-app data-dependency pressure; comes from
	// the workload config).
	BackendCPI float64

	// BTB is the target predictor under evaluation.
	BTB btb.TargetPredictor
	// Direction predicts conditional branches (nil selects a default TAGE).
	Direction predictor.Direction
	// PerfectDirection short-circuits direction prediction (§5.5).
	PerfectDirection bool
	// ITTAGE, when non-nil, serves indirect branches instead of the BTB
	// (§5.6: indirect targets are then not allocated in the BTB).
	ITTAGE *predictor.ITTAGE
	// StoreReturnsInBTB drops the RAS and routes returns through the BTB
	// (§5.7). The BTB must be configured to accept returns.
	StoreReturnsInBTB bool

	// UsePipeline selects the event-timestamped pipeline model
	// (pipeline.go) instead of the analytic runahead model.
	UsePipeline bool

	// WarmupInstrs are executed with all structures live but no statistics
	// (the paper warms with 100M+ and measures 10M+; scale to taste).
	WarmupInstrs uint64
	// MeasureInstrs bounds the measured window (0 = to end of trace).
	MeasureInstrs uint64

	// AuditEvery, when non-zero, deep-checks the BTB's internal invariants
	// (btb.Auditable) every N records and aborts the run on the first
	// violation. 0 disables auditing; the only residual per-record cost is
	// one integer compare.
	AuditEvery uint64
}

// auditBTB runs the configured periodic deep-check, wrapping failures with
// enough context to locate the corrupting record window.
func auditBTB(a btb.Auditable, records uint64) error {
	if err := a.Audit(); err != nil {
		return fmt.Errorf("core: BTB audit failed at record %d: %w", records, err)
	}
	return nil
}

// RunContext replays one trace through the configured core model (the
// analytic one, or the pipeline one when cfg.UsePipeline is set). The
// record loop observes ctx every few thousand records, so a deadline or
// cancel ends the simulation with the context's error instead of running
// the trace to completion. The simulation itself is a Session drained from
// src, so batch-streamed (serve) and whole-trace runs share one code path
// bit-for-bit.
func RunContext(ctx context.Context, cfg Config, src trace.Source) (*Result, error) {
	se, err := NewSession(cfg, src.Name())
	if err != nil {
		return nil, err
	}
	return se.runSource(ctx, src)
}

// drain is the one record loop of the package: it feeds r's records to
// apply in recordBatch-sized batches until apply reports done, the trace
// ends, or ctx is done. apply has Session.Apply's contract: it returns how
// many records of the batch it consumed and whether it wants no more.
func drain(ctx context.Context, r trace.Reader, apply func([]isa.Branch) (int, bool, error)) error {
	batch := make([]isa.Branch, recordBatch)
	var records uint64
	for {
		if err := checkCtx(ctx, records); err != nil {
			return err
		}
		n, rerr := trace.ReadBatch(r, batch)
		k, done, err := apply(batch[:n])
		records += uint64(k)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return nil
			}
			return rerr
		}
		if n == 0 {
			return nil
		}
	}
}

// frontend is the state both core models share: configuration, the
// branch-prediction unit, the instruction caches (or the shared frontend
// log standing in for them), the warmup/measure window counters and the
// result accumulator. The models differ only in how a record's prediction
// and fetch outcome become cycles.
type frontend struct {
	cfg    Config
	bpu    bpu
	ic     *cache.Cache
	l2     *cache.Cache
	res    *Result
	effCPI float64

	// log is a logged session's shared frontend log (nil for a cold
	// session): the caches' and direction predictor's outcome for every
	// trace record, read in place of ic, l2 and a live TAGE. logPos is the
	// index of the record being stepped.
	log    []warmRec
	logPos int

	seen     uint64 // total instructions processed (incl. warmup)
	measured uint64 // instructions inside the measured window
	// refill marks that the frontend pipeline was just flushed: the first
	// multi-cycle BTB lookup afterwards exposes its extra latency (a
	// pipelined 2-cycle BTB costs throughput nothing in steady state, only
	// restart latency — §5.4).
	refill bool
	// produceTab caches ceil(len/FetchWidth) for short blocks, replacing a
	// per-record integer division (see initProduceTab).
	produceTab [produceTabLen]float64
}

// init validates cfg and builds the shared state; name labels the Result's
// App field. A cold session (log == nil) builds live caches and direction
// predictor; a logged one builds neither and reads them from log.
func (f *frontend) init(cfg Config, name string, log []warmRec) error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.BTB == nil {
		return fmt.Errorf("core: no BTB configured")
	}
	if cfg.BackendCPI <= 0 {
		return fmt.Errorf("core: BackendCPI must be positive")
	}
	f.cfg = cfg
	f.bpu = bpu{cfg: &f.cfg, ras: predictor.NewRAS(cfg.Params.RASEntries)}
	if log != nil {
		f.log = log
		f.bpu.dir = logDir{f}
	} else if err := f.initCold(); err != nil {
		return err
	}
	design := cfg.BTB.Name()
	if cfg.UsePipeline {
		design += "+pipe"
	}
	f.res = &Result{App: name, Design: design}
	f.effCPI = cfg.BackendCPI
	if min := 1 / float64(cfg.Params.RetireWidth); f.effCPI < min {
		f.effCPI = min
	}
	initProduceTab(&f.produceTab, cfg.Params.FetchWidth)
	return nil
}

// initCold builds a cold session's live caches and direction predictor.
func (f *frontend) initCold() error {
	p := &f.cfg.Params
	ic, err := cache.New(p.ICacheBytes, p.ICacheWays, p.ICacheLineBytes)
	if err != nil {
		return err
	}
	l2, err := cache.New(p.L2Bytes, p.L2Ways, p.ICacheLineBytes)
	if err != nil {
		return err
	}
	f.ic, f.l2 = ic, l2
	f.bpu.dir = f.cfg.Direction
	if f.bpu.dir == nil {
		dir, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
		if err != nil {
			return err
		}
		f.bpu.dir = dir
	}
	return nil
}

// advance counts b's block into the window counters and reports whether it
// lies in the measured window.
func (f *frontend) advance(b isa.Branch) (measuring bool) {
	measuring = f.seen >= f.cfg.WarmupInstrs
	f.seen += uint64(b.BlockLen)
	if measuring {
		f.measured += uint64(b.BlockLen)
	}
	return measuring
}

// full reports whether the measure window has filled.
func (f *frontend) full() bool {
	return f.cfg.MeasureInstrs != 0 && f.measured >= f.cfg.MeasureInstrs
}

// missLat is the latency the first ICache miss of a block pays: an L2
// fill, or the longer one from beyond the L2.
func (f *frontend) missLat(l2miss bool) float64 {
	if l2miss {
		return float64(f.cfg.Params.L2MissLat)
	}
	return float64(f.cfg.Params.ICacheMissLat)
}

// fetch returns the ICache outcome of the block ending in b, the record
// being stepped: the miss count and whether the first fill came from beyond
// the L2. A logged session reads the shared pass's outcome (Session.Apply
// never steps a record past the log); otherwise the block [BlockStart, PC]
// is accessed in the ICache and its misses fill from the L2. Both core
// models and the shared frontend pass fetch through it.
func (f *frontend) fetch(b isa.Branch) (misses int, l2miss bool) {
	if i := uint(f.logPos); i < uint(len(f.log)) {
		return int(f.log[i].misses), f.log[i].flags&warmL2Miss != 0
	}
	blockStart := b.PC.Add(-uint64(b.BlockLen-1) * isa.InstrBytes)
	misses = f.ic.AccessRange(blockStart, b.PC)
	return misses, misses > 0 && f.l2.AccessRange(blockStart, b.PC) > 0
}

// polluteWrongPath models the ICache pollution of wrong-path fetch: until a
// resteer resolves, the frontend streams lines from wherever it (wrongly)
// went — the mispredicted target if it had one, the fallthrough otherwise.
func (f *frontend) polluteWrongPath(b isa.Branch, look btb.Lookup) {
	start := b.Fallthrough()
	if look.Hit && look.Target != b.NextPC() {
		start = look.Target
	}
	line := uint64(f.cfg.Params.ICacheLineBytes)
	for i := 0; i < f.cfg.Params.WrongPathLines; i++ {
		f.ic.Access(start.Add(uint64(i) * line))
	}
}

// sim is the analytic runahead model (see the package comment).
type sim struct {
	frontend
	lead float64
}

// run steps recs through the model until the measure window fills. It
// returns the records consumed and whether the window filled.
func (s *sim) run(recs []isa.Branch) (int, bool) {
	for i := range recs {
		s.step(recs[i])
		if s.full() {
			return i + 1, true
		}
	}
	return len(recs), false
}

// step processes one dynamic branch record: the basic block ending in it
// plus the branch's prediction, resolution and cycle accounting.
func (s *sim) step(b isa.Branch) {
	measuring := s.advance(b)

	// --- Fetch of the block [BlockStart, PC]: ICache misses fill from the
	// L2; code that misses there too pays the longer latency.
	misses, l2miss := s.fetch(b)
	if measuring {
		s.res.ICacheMisses += uint64(misses)
		s.res.ICacheAccesses++
	}

	// --- Branch prediction unit (lookup, direction, classification,
	// training) — shared with the pipeline model.
	pr := s.bpu.predict(b)
	if measuring {
		s.bpu.note(s.res, b, pr)
	}

	s.account(b, pr, misses, s.missLat(l2miss), measuring)
	s.logPos++
}

// account applies one record's cycle accounting: the lead and refill
// recurrences of the runahead model.
func (s *sim) account(b isa.Branch, pr prediction, misses int, fillLat float64, measuring bool) {
	p := &s.cfg.Params
	// --- Cycle accounting (runahead/lead model, see package comment).
	// The BTB's extra lookup cycle is pipelined: back-to-back lookups
	// overlap, so steady-state supply is unaffected; the latency is exposed
	// only when the frontend restarts after a flush (and, mildly, as slower
	// runahead growth, modelled by the lead debit below).
	produce := produceCycles(&s.produceTab, b.BlockLen, p.FetchWidth)
	extraUsed := b.Taken && pr.look.Hit && pr.look.ExtraLatency > 0 && (pr.dirPred || !b.Kind.IsConditional())
	if extraUsed {
		// Taken-branch lookups form a serial recurrence (the next lookup
		// address is this lookup's target), so a multi-cycle BTB cannot be
		// fully pipelined across taken branches; next-block prediction
		// overlaps most of it. After a flush the full latency is exposed
		// once while the pipeline refills.
		produce += serializeFrac * float64(pr.look.ExtraLatency)
		if s.refill {
			produce += (1 - serializeFrac) * float64(pr.look.ExtraLatency)
		}
	}
	if b.Taken || !b.Kind.IsConditional() {
		s.refill = false
	}
	icacheStall := 0.0
	if misses > 0 {
		icacheStall = fillLat - s.lead
		if icacheStall < 0 {
			icacheStall = 0
		}
		// Extra misses in the same block fill back-to-back (pipelined L2).
		icacheStall += 2 * float64(misses-1)
	}
	consume := float64(b.BlockLen) * s.effCPI
	supply := produce + icacheStall
	bubble := supply - consume - s.lead
	if bubble < 0 {
		bubble = 0
	}
	s.lead += consume + bubble - supply
	if s.lead < 0 {
		s.lead = 0
	}
	if lim := float64(p.FetchQueueEntries); s.lead > lim {
		s.lead = lim
	}

	if measuring {
		s.res.Cycles += consume + bubble + float64(pr.penalty)
		s.res.BackendCycles += consume
		s.res.FrontendBubbles += bubble
	}
	if pr.penalty > 0 {
		s.lead = 0
		s.refill = true
		if p.WrongPathLines > 0 {
			s.polluteWrongPath(b, pr.look)
		}
	}
}

// produceTabLen bounds the produce-cycles lookup table; blocks longer than
// this (vanishingly rare — a block is one basic block) fall back to the
// division.
const produceTabLen = 256

// initProduceTab fills tab[l] = ceil(l/fetchWidth) so the per-record cycle
// accounting indexes instead of dividing.
func initProduceTab(tab *[produceTabLen]float64, fetchWidth int) {
	for i := range tab {
		tab[i] = float64((i + fetchWidth - 1) / fetchWidth)
	}
}

// produceCycles returns ceil(blockLen/fetchWidth) — width-limited cycles to
// supply the block — via the precomputed table when possible.
func produceCycles(tab *[produceTabLen]float64, blockLen uint16, fetchWidth int) float64 {
	if int(blockLen) < produceTabLen {
		return tab[blockLen]
	}
	return float64((int(blockLen) + fetchWidth - 1) / fetchWidth)
}
