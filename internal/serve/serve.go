// Package serve implements the pdede-serve daemon: a multi-tenant HTTP
// front end over core.Session. Each tenant is one independent simulation —
// its own BTB, direction predictor and caches — fed by streamed PDT1
// branch-trace batches and answering with rolling MPKI/IPC.
//
// The package is engineered failure-first:
//
//   - batches are sequence-numbered and applied exactly once, so client
//     retries after timeouts or restarts can never double-train a tenant;
//   - per-tenant queues and per-worker shard queues are bounded, and
//     overflow is explicit backpressure (429 + Retry-After), never an
//     unbounded buffer;
//   - a panicking simulator is contained to its tenant: the session is
//     discarded, rebuilt from the journal, and the tenant quarantined
//     after repeated crashes;
//   - under the resident-tenant cap, the least-recently-touched idle
//     tenants are checkpointed to disk (internal/atomicio) and freed,
//     then restored on their next request;
//   - SIGTERM drain refuses new work, finishes what is queued, and
//     checkpoints every tenant; a restarted server restores them with
//     bit-identical rolling metrics (config-digest validated).
package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Config parameterizes a Server. The zero value of every optional field
// selects a sensible default (see New); Design is required. Once New has
// normalized its copy, the snapshot the Server holds never changes — the
// frozen analyzer enforces that no handler writes through it.
//
//pdede:frozen
type Config struct {
	// Design builds each tenant's BTB and optionally adjusts the core
	// configuration (the experiments registry supplies these; the design
	// name feeds the config digest that validates checkpoints).
	Design experiments.Design
	// Params are the core model parameters; the zero value selects
	// core.Icelake().
	Params core.Params
	// BackendCPI is the backend cycles-per-instruction applied to every
	// tenant (default 1.0).
	BackendCPI float64
	// WarmupInstrs run with structures live but statistics off.
	WarmupInstrs uint64
	// AuditEvery deep-checks each tenant's BTB invariants every N records;
	// an audit failure is treated like a crash (the tenant's state is
	// rebuilt from its journal). 0 disables auditing.
	AuditEvery uint64

	// Workers is the size of the apply pool; tenants are sharded across
	// workers by name hash, so one tenant's batches always apply in order
	// on one goroutine. Default 4.
	Workers int
	// QueueDepth bounds each worker's shard queue. Default 64.
	QueueDepth int
	// TenantPending bounds how many admitted batches one tenant may have
	// queued at once. Default 4.
	TenantPending int
	// MaxBatchRecords rejects oversized batches (413). Default 1<<20.
	MaxBatchRecords int
	// MaxResidentTenants caps how many tenants keep a live simulator in
	// memory — the service's stand-in for memory pressure. Beyond the cap,
	// the least-recently-touched idle tenants are checkpointed and freed,
	// to be restored on their next request. 0 disables shedding; shedding
	// also requires CheckpointDir (state is never silently dropped).
	MaxResidentTenants int
	// CheckpointDir is where tenant checkpoints live; "" disables
	// checkpoint/restore (and therefore shedding and drain persistence).
	CheckpointDir string
	// QuarantineAfter stops accepting batches for a tenant after this many
	// simulator crashes. Default 3.
	QuarantineAfter int
	// RequestTimeout bounds how long a batch request may wait for its
	// worker (queued + applying). The batch may still apply after the 504;
	// the client retries the same sequence number and gets a duplicate
	// ack. Default 30s; negative disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent in the Retry-After header on
	// backpressure and drain responses (whole seconds, floored). Default 1s.
	RetryAfter time.Duration

	// ApplyHook, when non-nil, runs inside the panic-isolation boundary
	// just before each batch applies — a test seam for injecting simulator
	// crashes.
	ApplyHook func(tenant string, seq uint64)
}

// Server is the multi-tenant simulation service. Create with New, mount
// Handler, and Close on shutdown.
type Server struct {
	cfg    Config
	digest string
	queues []chan job

	workers  sync.WaitGroup
	inflight sync.WaitGroup
	clock    atomic.Uint64 // logical LRU clock for shedding
	resident atomic.Int64  // tenants with a live core.Session
	shedMu   sync.Mutex    // at most one shed sweep at a time
	met      metrics

	mu sync.Mutex
	// tenants maps tenant name to its state. Entries are created on first
	// request and never removed; shedding frees the heavy state inside.
	//pdede:guarded-by(mu)
	tenants map[string]*tenant
	// draining refuses new requests while inflight ones finish.
	//pdede:guarded-by(mu)
	draining bool
	//pdede:guarded-by(mu)
	closed bool
}

// New validates cfg (by building a probe simulator), applies defaults, and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Design.New == nil {
		return nil, fmt.Errorf("serve: Config.Design is required")
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = core.Icelake()
	}
	if cfg.BackendCPI <= 0 {
		cfg.BackendCPI = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.TenantPending <= 0 {
		cfg.TenantPending = 4
	}
	if cfg.MaxBatchRecords <= 0 {
		cfg.MaxBatchRecords = 1 << 20
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxResidentTenants > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("serve: MaxResidentTenants requires CheckpointDir (shedding must not drop state)")
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	// A design that cannot build should fail at startup, not on the first
	// tenant's first batch.
	if _, err := newTenantSession(&cfg, "probe"); err != nil {
		return nil, fmt.Errorf("serve: design %q cannot serve: %w", cfg.Design.Name, err)
	}

	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}
	s.digest = configDigest(&cfg)
	s.queues = make([]chan job, cfg.Workers)
	for i := range s.queues {
		s.queues[i] = make(chan job, cfg.QueueDepth)
		s.workers.Add(1)
		go s.worker(s.queues[i])
	}
	return s, nil
}

// ConfigDigest identifies the simulation configuration; checkpoints carry
// it and a server refuses checkpoints written under a different one.
func (s *Server) ConfigDigest() string { return s.digest }

// NewSession builds one tenant's simulator from this service config. The
// server calls it per tenant; offline verifiers (the chaos harness, the
// drain tests) call it to replay a tenant's records outside the service
// and compare digests.
func (cfg *Config) NewSession(name string) (*core.Session, error) {
	tp, err := cfg.Design.New()
	if err != nil {
		return nil, err
	}
	// Apply the simulation-shaping defaults here (not just in New) so an
	// offline replay from the same un-defaulted Config builds the same
	// simulator the server runs.
	params := cfg.Params
	if params == (core.Params{}) {
		params = core.Icelake()
	}
	cpi := cfg.BackendCPI
	if cpi <= 0 {
		cpi = 1
	}
	cc := core.Config{
		Params:       params,
		BackendCPI:   cpi,
		BTB:          tp,
		WarmupInstrs: cfg.WarmupInstrs,
		AuditEvery:   cfg.AuditEvery,
	}
	if cfg.Design.Mod != nil {
		cfg.Design.Mod(&cc)
	}
	return core.NewSession(cc, name)
}

// newTenantSession is the internal spelling used before defaults are
// applied in New and by per-tenant rebuilds.
func newTenantSession(cfg *Config, name string) (*core.Session, error) {
	return cfg.NewSession(name)
}

// configDigest fingerprints everything that shapes a tenant's simulation:
// the design (name plus its structural digest from the experiments
// registry) and the core knobs. Two servers agree on tenant checkpoints
// iff their digests match.
func configDigest(cfg *Config) string {
	dd := experiments.DesignDigests([]experiments.Design{cfg.Design})
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%+v|%g|%d|%d",
		cfg.Design.Name, dd[cfg.Design.Name], cfg.Params,
		cfg.BackendCPI, cfg.WarmupInstrs, cfg.AuditEvery)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ResultDigest fingerprints a rolling result — every counter and cycle
// float. An offline replay of the same records produces the same digest
// iff the served simulation is bit-identical.
//
// The digest is FNV-64a of the result's fmt "%+v" text, as 16 hex digits.
// Acks, checkpoints' result_digest and the benchmark's expected outputs
// all pin that definition, so appendResult rebuilds the text field by
// field instead of formatting it by reflection, and tests hold the two
// equal.
func ResultDigest(r *core.Result) string {
	var text [512]byte
	h := fnv.New64a()
	h.Write(appendResult(text[:0], r))
	var sum [8]byte
	return hex.EncodeToString(binary.BigEndian.AppendUint64(sum[:0], h.Sum64()))
}

// appendResult appends the text fmt's "%+v" gives for *r.
func appendResult(b []byte, r *core.Result) []byte {
	b = append(b, "{App:"...)
	b = append(b, r.App...)
	b = append(b, " Design:"...)
	b = append(b, r.Design...)
	b = appendUint(b, " Instructions:", r.Instructions)
	b = appendFloat(b, " Cycles:", r.Cycles)
	b = appendUint(b, " DynBranches:", r.DynBranches)
	b = appendUint(b, " TakenDyn:", r.TakenDyn)
	b = appendUint(b, " LookupsTaken:", r.LookupsTaken)
	b = appendUints(b, " BTBMissByClass:", r.BTBMissByClass[:])
	b = appendUints(b, " TakenByClass:", r.TakenByClass[:])
	b = appendUint(b, " DirMispredicts:", r.DirMispredicts)
	b = appendUint(b, " RASMispredicts:", r.RASMispredicts)
	b = appendUint(b, " ICacheMisses:", r.ICacheMisses)
	b = appendUint(b, " ICacheAccesses:", r.ICacheAccesses)
	b = appendUint(b, " ExtraBTBCycles:", r.ExtraBTBCycles)
	b = appendUint(b, " DeltaServed:", r.DeltaServed)
	b = appendUint(b, " NTRegisterhits:", r.NTRegisterhits)
	b = appendUint(b, " WrongPathFlush:", r.WrongPathFlush)
	b = appendUint(b, " BTBResteers:", r.BTBResteers)
	b = appendUint(b, " DirResteers:", r.DirResteers)
	b = appendUint(b, " RetResteers:", r.RetResteers)
	b = appendFloat(b, " BackendCycles:", r.BackendCycles)
	b = appendFloat(b, " FrontendBubbles:", r.FrontendBubbles)
	b = appendFloat(b, " BTBResteerCycles:", r.BTBResteerCycles)
	b = appendFloat(b, " DirResteerCycles:", r.DirResteerCycles)
	b = appendFloat(b, " RetResteerCycles:", r.RetResteerCycles)
	return append(b, '}')
}

func appendUint(b []byte, label string, v uint64) []byte {
	return strconv.AppendUint(append(b, label...), v, 10)
}

func appendUints(b []byte, label string, vs []uint64) []byte {
	b = append(append(b, label...), '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, ']')
}

// appendFloat matches %v: the shortest 'g' form, with fmt's "+Inf",
// "-Inf" and "NaN", which strconv spells the same way.
func appendFloat(b []byte, label string, v float64) []byte {
	return strconv.AppendFloat(append(b, label...), v, 'g', -1, 64)
}

// Handler returns the service mux.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/batches/{seq}", s.handleBatch)
	mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// reply is the outcome of one request: exactly one of ack or err is set.
type reply struct {
	status int
	ack    *BatchAck
	err    *ErrorBody
}

func errReply(status int, code string, retryable bool, format string, args ...any) reply {
	return reply{status: status, err: &ErrorBody{
		Error:     fmt.Sprintf(format, args...),
		Code:      code,
		Retryable: retryable,
	}}
}

func (s *Server) writeReply(w http.ResponseWriter, rep reply) {
	w.Header().Set("Content-Type", "application/json")
	if rep.status == http.StatusTooManyRequests ||
		(rep.err != nil && rep.err.Code == CodeDraining) {
		w.Header().Set(RetryAfterHeader, strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
	}
	w.WriteHeader(rep.status)
	enc := json.NewEncoder(w)
	if rep.ack != nil {
		enc.Encode(rep.ack)
		return
	}
	enc.Encode(rep.err)
}

// enterRequest registers an inflight request unless the server is
// draining. Registering under the same lock as the draining check means
// Close's inflight.Wait can never miss a request that saw draining=false.
func (s *Server) enterRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// tenantFor returns the named tenant's state, creating it on first touch.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		t = &tenant{name: name, nextSeq: 1, nextAdmit: 1}
		s.tenants[name] = t
	}
	return t
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		s.writeReply(w, errReply(http.StatusBadRequest, CodeBadRequest, false,
			"invalid tenant name %q", name))
		return
	}
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil || seq == 0 {
		s.writeReply(w, errReply(http.StatusBadRequest, CodeBadRequest, false,
			"invalid sequence number %q", r.PathValue("seq")))
		return
	}
	if !s.enterRequest() {
		s.met.drainRejects.Add(1)
		s.writeReply(w, errReply(http.StatusServiceUnavailable, CodeDraining, true,
			"server is draining"))
		return
	}
	defer s.inflight.Done()

	// The whole body is decoded before any tenant state is touched: a
	// slow or dying client holds only its own request open and can never
	// stall a worker or leave a half-applied batch.
	recs, badBody := s.readBatch(w, r)
	if badBody != nil {
		if badBody.err.Code == CodeTruncated {
			s.met.truncated.Add(1)
		}
		s.writeReply(w, *badBody)
		return
	}

	t := s.tenantFor(name)
	t.touch.Store(s.clock.Add(1))
	ch, rep := s.admit(t, seq, recs)
	if ch == nil {
		s.writeReply(w, rep)
		return
	}
	s.maybeShed()

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	select {
	case out := <-ch:
		s.writeReply(w, out)
	case <-ctx.Done():
		s.met.deadlines.Add(1)
		s.writeReply(w, errReply(http.StatusGatewayTimeout, CodeDeadline, true,
			"batch %d missed its deadline; it may still apply — retry the same sequence number", seq))
	}
}

// admit decides one batch's fate under the tenant lock: duplicate ack,
// ordering error, quarantine refusal, backpressure, or enqueue to the
// tenant's worker shard. A nil channel means rep is the final answer;
// otherwise the worker's reply arrives on the channel.
func (s *Server) admit(t *tenant, seq uint64, recs []isa.Branch) (chan reply, reply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rep := t.restoreLocked(s); rep != nil {
		return nil, *rep
	}
	if t.quarantined {
		return nil, errReply(http.StatusServiceUnavailable, CodeQuarantined, false,
			"tenant %s is quarantined after %d crashes", t.name, t.crashes)
	}
	switch {
	case seq < t.nextSeq:
		s.met.duplicates.Add(1)
		return nil, t.duplicateAckLocked(seq)
	case seq < t.nextAdmit:
		return nil, errReply(http.StatusConflict, CodePending, true,
			"batch %d is already queued or in flight", seq)
	case seq > t.nextAdmit:
		return nil, errReply(http.StatusConflict, CodeGap, false,
			"batch %d skips ahead: next expected is %d", seq, t.nextAdmit)
	}
	if int(t.pending.Load()) >= s.cfg.TenantPending {
		s.met.backpressure.Add(1)
		return nil, errReply(http.StatusTooManyRequests, CodeBackpressure, true,
			"tenant %s already has %d batches queued", t.name, s.cfg.TenantPending)
	}
	ch := make(chan reply, 1)
	select {
	case s.queues[shard(t.name, len(s.queues))] <- job{t: t, seq: seq, recs: recs, reply: ch}:
		t.nextAdmit = seq + 1
		t.pending.Add(1)
		return ch, reply{}
	default:
		s.met.backpressure.Add(1)
		return nil, errReply(http.StatusTooManyRequests, CodeBackpressure, true,
			"worker queue for tenant %s is full", t.name)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		s.writeReply(w, errReply(http.StatusBadRequest, CodeBadRequest, false,
			"invalid tenant name %q", name))
		return
	}
	if !s.enterRequest() {
		s.met.drainRejects.Add(1)
		s.writeReply(w, errReply(http.StatusServiceUnavailable, CodeDraining, true,
			"server is draining"))
		return
	}
	defer s.inflight.Done()
	t := s.tenantFor(name)
	t.touch.Store(s.clock.Add(1))
	st, rep := s.statsFor(t)
	if rep != nil {
		s.writeReply(w, *rep)
		return
	}
	s.maybeShed()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// statsFor snapshots one tenant, restoring (and if needed rebuilding) its
// state so the reported metrics are always authoritative.
func (s *Server) statsFor(t *tenant) (*TenantStats, *reply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rep := t.restoreLocked(s); rep != nil {
		return nil, rep
	}
	if t.nextSeq == 1 && len(t.journal) == 0 && t.crashes == 0 {
		rep := errReply(http.StatusNotFound, CodeUnknownTenant, false,
			"tenant %s has no state", t.name)
		return nil, &rep
	}
	st := &TenantStats{
		Tenant:      t.name,
		NextSeq:     t.nextSeq,
		Resident:    t.sess != nil,
		Quarantined: t.quarantined,
		Crashes:     t.crashes,
	}
	if rep := t.ensureSessionLocked(s); rep != nil {
		return nil, rep
	}
	snap := t.sess.Snapshot()
	st.TotalRecords = t.sess.Records()
	st.Instructions = snap.Instructions
	st.MPKI = snap.BTBMPKI()
	st.IPC = snap.IPC()
	st.Digest = ResultDigest(&snap)
	return st, nil
}

// maybeShed checkpoints and frees the least-recently-touched idle tenants
// while the resident count exceeds the cap. At most one sweep runs at a
// time; an active tenant (pending batches) is never shed.
func (s *Server) maybeShed() {
	max := s.cfg.MaxResidentTenants
	if max <= 0 || s.cfg.CheckpointDir == "" {
		return
	}
	if int(s.resident.Load()) <= max {
		return
	}
	if !s.shedMu.TryLock() {
		return
	}
	defer s.shedMu.Unlock()

	type cand struct {
		t     *tenant
		touch uint64
	}
	s.mu.Lock()
	var names []string
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	cands := make([]cand, 0, len(names))
	for _, name := range names {
		cands = append(cands, cand{t: s.tenants[name]})
	}
	s.mu.Unlock()
	for i := range cands {
		cands[i].touch = cands[i].t.touch.Load()
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	for _, c := range cands {
		if int(s.resident.Load()) <= max {
			break
		}
		s.shedOne(c.t)
	}
}

// shedOne checkpoints one idle tenant and frees its simulator and journal;
// the next request restores it from disk. On checkpoint failure the tenant
// stays resident — state is never dropped.
func (s *Server) shedOne(t *tenant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil || t.pending.Load() != 0 {
		return
	}
	if err := t.checkpointLocked(s); err != nil {
		s.met.checkpointErrors.Add(1)
		return
	}
	t.sess = nil
	t.journal = nil
	t.restored = false
	t.lastAck = BatchAck{}
	t.wantDigest = ""
	s.resident.Add(-1)
	s.met.shed.Add(1)
}

// BeginDrain flips the server into drain mode: /readyz reports 503 and new
// requests are refused with a retryable "draining" error, while queued and
// inflight batches keep applying.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
}

// Close drains and shuts down: refuse new requests, wait for inflight ones
// (every admitted batch is applied and acked), stop the workers, then
// checkpoint every tenant. A server restarted on the same CheckpointDir
// resumes each tenant bit-identically. Close is idempotent.
func (s *Server) Close() error {
	s.BeginDrain()
	s.inflight.Wait()
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return nil
	}
	for _, q := range s.queues {
		close(q)
	}
	s.workers.Wait()
	return s.checkpointAll()
}

// checkpointAll persists every tenant that holds state this process
// created or loaded. Tenants already shed to disk (restored=false) are
// skipped: their checkpoint is the current truth.
func (s *Server) checkpointAll() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	s.mu.Lock()
	var names []string
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	ts := make([]*tenant, 0, len(names))
	for _, name := range names {
		ts = append(ts, s.tenants[name])
	}
	s.mu.Unlock()
	var firstErr error
	for _, t := range ts {
		t.mu.Lock()
		if t.restored && (t.nextSeq > 1 || t.crashes > 0) {
			if err := t.checkpointLocked(s); err != nil {
				s.met.checkpointErrors.Add(1)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		t.mu.Unlock()
	}
	return firstErr
}

// readBatch reads a batch request's whole body and decodes it. The body is
// capped at the longest legal encoding of MaxBatchRecords records, so a
// read-whole-body decode never holds more than the largest batch it could
// accept.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) ([]isa.Branch, *reply) {
	max := s.cfg.MaxBatchRecords
	limit := trace.MaxEncodedLen(max)
	if r.ContentLength > limit {
		return nil, tooLarge(max)
	}
	data, err := readBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, tooLarge(max)
	}
	return decodeBody(data, err, max)
}

func tooLarge(max int) *reply {
	rep := errReply(http.StatusRequestEntityTooLarge, CodeTooLarge, false, "batch exceeds %d records", max)
	return &rep
}

// maxBodyReserve bounds how much of a declared Content-Length readBody
// reserves before any of it arrives: a client declaring a huge body must
// send it to make the buffer grow.
const maxBodyReserve = 64 << 10

// readBody reads a whole body. A body of declared length, up to
// maxBodyReserve, reads into one allocation.
func readBody(body io.Reader, contentLength int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(contentLength, 0), maxBodyReserve)) + bytes.MinRead)
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// decodeBody decodes a whole PDT1 batch body, in place, into one slice
// sized from the body's length. readErr is how reading the body failed, if
// it did. Any mid-stream decode failure maps to the retryable "truncated"
// error: whether the client died, stalled forever (the HTTP server's read
// timeout fires), or sent garbage, nothing was applied and a rebuilt body
// can succeed. Bytes after the end-of-stream marker are a malformed
// request, not a second batch.
func decodeBody(data []byte, readErr error, max int) ([]isa.Branch, *reply) {
	fail := func(err error) ([]isa.Branch, *reply) {
		rep := errReply(http.StatusBadRequest, CodeTruncated, true, "decoding batch: %v", err)
		return nil, &rep
	}
	malformed := func(format string, args ...any) ([]isa.Branch, *reply) {
		rep := errReply(http.StatusBadRequest, CodeBadRequest, false, format, args...)
		return nil, &rep
	}
	d, err := trace.NewBytesDecoder(data)
	if err != nil {
		return fail(err)
	}
	// One slot more than the body can hold or the cap allows: a full
	// slice means the batch has more than max records.
	recs := make([]isa.Branch, min(max, len(data)/trace.MinRecordBytes)+1)
	n, err := d.NextBatch(recs)
	switch {
	case err == nil:
		return nil, tooLarge(max)
	case !errors.Is(err, io.EOF):
		return fail(err)
	case readErr != nil:
		return fail(readErr)
	case n == 0:
		return malformed("empty batch")
	case d.Offset() < int64(len(data)):
		return malformed("%d trailing bytes after the batch's end-of-stream marker", int64(len(data))-d.Offset())
	}
	return recs[:n], nil
}

// validTenantName accepts [A-Za-z0-9_.-]{1,64}, not starting with a dot
// (checkpoint files are <name>.ckpt; dot-prefixed names would collide with
// atomicio temp files).
func validTenantName(name string) bool {
	if len(name) == 0 || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}
