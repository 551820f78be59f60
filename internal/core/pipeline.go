package core

import (
	"context"

	"repro/internal/isa"
	"repro/internal/trace"
)

// RunPipelineContext is RunContext with cfg.UsePipeline set.
func RunPipelineContext(ctx context.Context, cfg Config, src trace.Source) (*Result, error) {
	cfg.UsePipeline = true
	return RunContext(ctx, cfg, src)
}

// pipeline is the repository's second, more literal core model: instead
// of the analytic runahead credit of sim, it tracks explicit per-block
// timestamps through BPU → fetch-target queue → ICache/fetch → decode →
// retire, like an event-driven pipeline simulation.
//
//	bpuDone   — cycle the block's prediction leaves the BPU (1 block/cycle,
//	            stalled by FTQ occupancy; after a flush, the first
//	            prediction pays the BTB's extra latency, which is otherwise
//	            pipelined away)
//	fetchDone — ICache fill (prefetch starts at FTQ insert) plus
//	            width-limited fetch, in order
//	decodeAt  — fetchDone + decode depth
//	retire    — in-order, RetireWidth/BackendCPI limited
//
// Mispredictions flush: decode-detected (wrong direct target) restarts the
// BPU at decodeAt; execute-detected (direction, indirect, return) restarts
// at decodeAt + (ExecResteer − DecodeResteer). The penalties therefore
// emerge from pipeline geometry rather than being charged as constants —
// cross-validating the analytic model (see pipeline_test.go).
//
// Both models share the frontend (identical prediction, training and MPKI
// accounting); they differ only in how prediction behaviour becomes cycles.
type pipeline struct {
	frontend

	// Timestamps, in cycles since simulation start.
	bpuDone      float64   // last prediction completion
	fetchEnd     float64   // last fetch completion (fetch is in-order)
	retireEnd    float64   // last retirement completion
	ftqFree      []float64 // ring: fetch-completion times of the last N blocks
	ftqPos       int
	measureStart float64 // retireEnd when the measured window began
	started      bool
}

// run steps recs through the model until the measure window fills. It
// returns the records consumed and whether the window filled.
func (p *pipeline) run(recs []isa.Branch) (int, bool) {
	for i := range recs {
		p.step(recs[i])
		if p.full() {
			return i + 1, true
		}
	}
	return len(recs), false
}

func (p *pipeline) step(b isa.Branch) {
	par := &p.cfg.Params
	measuring := p.advance(b)
	if measuring && !p.started {
		p.started = true
		p.measureStart = p.retireEnd
	}

	// --- BPU: one block prediction per cycle, gated by FTQ occupancy (the
	// slot freed by the block FetchQueueEntries back) and by how far the
	// frontend may run ahead of retirement (the queues between decode and
	// retire are finite; FetchQueueEntries cycles of runahead mirrors the
	// analytic model's lead cap).
	issueAt := p.bpuDone + 1
	if slotFree := p.ftqFree[p.ftqPos]; slotFree > issueAt {
		issueAt = slotFree
	}
	if floor := p.retireEnd - float64(par.FetchQueueEntries); issueAt < floor {
		issueAt = floor
	}

	pr := p.bpu.predict(b)
	extraUsed := b.Taken && pr.look.Hit && pr.look.ExtraLatency > 0 &&
		(pr.dirPred || !b.Kind.IsConditional())
	if extraUsed {
		// See sim.go: the taken-branch lookup recurrence serializes part of
		// the extra latency; the full latency shows once per refill.
		issueAt += serializeFrac * float64(pr.look.ExtraLatency)
		if p.refill {
			issueAt += (1 - serializeFrac) * float64(pr.look.ExtraLatency)
		}
	}
	if b.Taken || !b.Kind.IsConditional() {
		p.refill = false
	}
	p.bpuDone = issueAt

	// --- ICache: prefetch fires at FTQ insert; fills are pipelined, from
	// the L2 when it holds the line and from beyond otherwise.
	misses, l2miss := p.fetch(b)
	ready := issueAt
	if misses > 0 {
		ready += p.missLat(l2miss) + 2*float64(misses-1)
	}

	// --- Fetch: in-order, width-limited.
	fetchCycles := produceCycles(&p.produceTab, b.BlockLen, par.FetchWidth)
	fetchStart := ready
	if p.fetchEnd > fetchStart {
		fetchStart = p.fetchEnd
	}
	p.fetchEnd = fetchStart + fetchCycles
	p.ftqFree[p.ftqPos] = p.fetchEnd
	p.ftqPos = (p.ftqPos + 1) % len(p.ftqFree)

	// --- Decode and in-order retire.
	decodeAt := p.fetchEnd + float64(par.DecodeResteer)
	retireStart := decodeAt
	if p.retireEnd > retireStart {
		retireStart = p.retireEnd
	}
	newRetireEnd := retireStart + float64(b.BlockLen)*p.effCPI

	if measuring {
		p.bpu.note(p.res, b, pr)
		p.res.ICacheAccesses++
		p.res.ICacheMisses += uint64(misses)
		p.res.BackendCycles += float64(b.BlockLen) * p.effCPI
		bubble := newRetireEnd - p.retireEnd - float64(b.BlockLen)*p.effCPI
		if bubble > 0 {
			p.res.FrontendBubbles += bubble
		}
	}
	p.retireEnd = newRetireEnd
	// Cycles is the measured window's retire span, kept current so a
	// Snapshot between batches reads a live figure. retireEnd never falls,
	// so the span is never negative.
	p.res.Cycles = p.retireEnd - p.measureStart

	// --- Resteer: restart the frontend where the misprediction is caught.
	if pr.penalty > 0 {
		restart := decodeAt
		if pr.kind != 1 || b.Kind.IsIndirect() {
			restart = decodeAt + float64(par.ExecResteer-par.DecodeResteer)
		}
		p.bpuDone = restart
		p.fetchEnd = restart
		for i := range p.ftqFree {
			p.ftqFree[i] = 0
		}
		p.ftqPos = 0
		p.refill = true
		if par.WrongPathLines > 0 {
			p.polluteWrongPath(b, pr.look)
		}
	}
	p.logPos++
}
