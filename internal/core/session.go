package core

import (
	"context"
	"fmt"

	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Session is an incrementally-driven simulation and the package's only
// simulation engine: RunContext, RunWarmContext and a long-running service
// all feed record batches through Apply, so whole-trace and batch-streamed
// runs are the same code and produce bit-identical results. A service
// applies each tenant's streamed batches through a Session and snapshots
// rolling metrics between them.
//
// A Session is a sequential state machine, like the predictors it drives:
// callers serialize Apply/Audit/Snapshot themselves (the serve package
// holds its per-tenant lock around them).
type Session struct {
	// Exactly one model is set (cfg.UsePipeline picks); fe is its shared
	// frontend state.
	sim  *sim
	pipe *pipeline
	fe   *frontend

	auditable btb.Auditable
	records   uint64
}

// NewSession validates cfg and assembles the simulation state of the model
// cfg.UsePipeline selects; name labels the Result's App field (RunContext
// passes the trace's name).
func NewSession(cfg Config, name string) (*Session, error) {
	return newSession(cfg, name, nil)
}

// newSession builds a cold session (log == nil) or one that reads its
// caches and direction predictor from a shared frontend log.
func newSession(cfg Config, name string, log []warmRec) (*Session, error) {
	se := &Session{}
	if cfg.UsePipeline {
		se.pipe = &pipeline{}
		se.fe = &se.pipe.frontend
	} else {
		se.sim = &sim{}
		se.fe = &se.sim.frontend
	}
	if err := se.fe.init(cfg, name, log); err != nil {
		return nil, err
	}
	if se.pipe != nil {
		se.pipe.ftqFree = make([]float64, cfg.Params.FetchQueueEntries)
	}
	if cfg.AuditEvery != 0 {
		se.auditable, _ = cfg.BTB.(btb.Auditable)
	}
	return se, nil
}

// Apply steps each record of batch through the core in order, honouring the
// configured audit cadence and the measure window. It returns the number of
// records consumed: n < len(batch) only when the measure window filled
// (done = true, remaining records untouched) or a periodic audit failed
// (err != nil; the structure is corrupt and the Session must be discarded).
//
// A logged session (NewWarmSession) steps only records its log covers: the
// rest of a batch that runs past the log is left unconsumed and Apply
// returns an error.
//
// The batch runs in chunks that end at audit points, and the model is
// chosen once per chunk, so the per-record loop makes no dynamic calls.
func (se *Session) Apply(batch []isa.Branch) (n int, done bool, err error) {
	var pastLog error
	if log := se.fe.log; log != nil && len(batch) > len(log)-se.fe.logPos {
		batch = batch[:len(log)-se.fe.logPos]
		pastLog = fmt.Errorf("core: record %d lies past the end of the shared frontend log: apply the trace the log was built from", len(log))
	}
	every := se.fe.cfg.AuditEvery
	for n < len(batch) {
		chunk := batch[n:]
		if se.auditable != nil {
			if k := every - se.records%every; k < uint64(len(chunk)) {
				chunk = chunk[:k]
			}
		}
		var k int
		if se.pipe != nil {
			k, done = se.pipe.run(chunk)
		} else {
			k, done = se.sim.run(chunk)
		}
		n += k
		se.records += uint64(k)
		if se.auditable != nil && se.records%every == 0 {
			if err := auditBTB(se.auditable, se.records-1); err != nil {
				return n, false, err
			}
		}
		if done {
			return n, true, nil
		}
	}
	return n, false, pastLog
}

// runSource applies src's records from its start until the trace ends or
// the measure window fills, then runs the closing audit.
func (se *Session) runSource(ctx context.Context, src trace.Source) (*Result, error) {
	if err := drain(ctx, src.Open(), se.Apply); err != nil {
		return nil, err
	}
	if err := se.Audit(); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

// Audit runs the deep invariant check immediately (when the BTB supports it
// and AuditEvery enabled auditing), independent of the periodic cadence.
// RunContext calls it once at end of trace; a service calls it before
// checkpointing a tenant.
func (se *Session) Audit() error {
	if se.auditable == nil {
		return nil
	}
	return auditBTB(se.auditable, se.records)
}

// Records returns how many branch records the session has applied.
func (se *Session) Records() uint64 { return se.records }

// Result returns the live result accumulator. RunContext returns it
// directly; callers that keep applying batches must not hold mutable
// references across Apply calls — use Snapshot for a stable copy.
func (se *Session) Result() *Result { return se.fe.res }

// Snapshot returns a copy of the rolling result at this instant. Result
// holds no reference types, so a shallow copy is a deep copy.
func (se *Session) Snapshot() Result { return *se.fe.res }
