package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

// serveBatchRecords is the chaos harness's batch size.
const serveBatchRecords = 120

// serveShape is one serve traffic shape: one closed-loop client
// interleaves the tenants, sending each its next batch in turn.
type serveShape struct {
	tenants int
	// batches each tenant sends per pass.
	batches int
	// maxResident caps resident tenants (0 = no shedding). Below the tenant
	// count, a return to a tenant finds it shed: the server checkpointed
	// it and replays its whole journal to restore it.
	maxResident int
}

var (
	// Sixteen tenant programs per pass keep the per-seed spread of input
	// instructions small.
	serveSpec = serveShape{tenants: 16, batches: 250}
	// shedSpec drives the durable write path in traced serve runs: more
	// tenants than resident slots and a checkpoint directory, so returning
	// to a shed tenant checkpoints another tenant's whole journal and
	// replays this one's; with one client every return restores.
	shedSpec = serveShape{tenants: 16, batches: 30, maxResident: 1}
)

// serveInput is the generated traffic: per tenant, its batches in order.
type serveInput struct {
	names   []string
	batches [][][]isa.Branch
	cfg     serve.Config
	records uint64
	instrs  uint64
}

func serveConfig() (serve.Config, error) {
	// pdede-serve's default design.
	d, ok := experiments.DesignByName(experiments.NameMultiEntry)
	if !ok {
		return serve.Config{}, fmt.Errorf("no design %q", experiments.NameMultiEntry)
	}
	return serve.Config{Design: d, Workers: nproc()}, nil
}

// serveSetup generates every tenant's batches and starts (then stops) one
// server, as a deployment pays once before traffic.
func serveSetup(seed uint64, shape serveShape, dir string) (*serveInput, error) {
	cfg, err := serveConfig()
	if err != nil {
		return nil, err
	}
	in := &serveInput{cfg: cfg}
	for t := 0; t < shape.tenants; t++ {
		recs, err := tenantRecords(seed, t, shape.batches*serveBatchRecords)
		if err != nil {
			return nil, err
		}
		var bs [][]isa.Branch
		for k := 0; k < shape.batches; k++ {
			bs = append(bs, recs[k*serveBatchRecords:(k+1)*serveBatchRecords])
		}
		in.names = append(in.names, fmt.Sprintf("t%02d", t))
		in.batches = append(in.batches, bs)
		in.records += uint64(len(recs))
		in.instrs += instructions(recs)
	}
	srv, hs, err := startServer(in.cfg, shape, dir)
	if err != nil {
		return nil, err
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return in, nil
}

// startServer starts pdede-serve in process behind httptest.
func startServer(cfg serve.Config, shape serveShape, dir string) (*serve.Server, *httptest.Server, error) {
	if shape.maxResident > 0 {
		cfg.MaxResidentTenants = shape.maxResident
		cfg.CheckpointDir = dir
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

// expectedAcks replays every tenant's batches offline through core.Session
// and returns the result digest after each batch.
func expectedAcks(in *serveInput) ([][]string, error) {
	out := make([][]string, len(in.names))
	for t, name := range in.names {
		se, err := in.cfg.NewSession(name)
		if err != nil {
			return nil, err
		}
		for _, b := range in.batches[t] {
			for pos := 0; pos < len(b); {
				n, _, err := se.Apply(b[pos:])
				if err != nil {
					return nil, err
				}
				if n == 0 {
					return nil, fmt.Errorf("tenant %s: session stopped applying", name)
				}
				pos += n
			}
			out[t] = append(out[t], serve.ResultDigest(se.Result()))
		}
	}
	return out, nil
}

// servePassOut is one closed-loop pass.
type servePassOut struct {
	wall     time.Duration
	segs     []segment // one per batch, in order
	batches  int
	acks     [][]string // per tenant, per batch
	failed   int        // batches that errored, needed a retry or acked oddly
	counters map[string]float64
}

// servePass starts a fresh server and drives every tenant's batches through
// it from one closed-loop client, round-robin over the tenants. Each batch
// is a segment and an operation: from the end of the previous batch's
// acknowledgement to the end of its own, its round trip plus the loop's
// few microseconds of bookkeeping. One client keeps the pass a sequence of segments whose
// fastest repetitions add up; with nproc clients on a shared 2-vCPU host
// the loop's time followed whichever vCPU the neighbours were busy on.
func servePass(ctx context.Context, in *serveInput, shape serveShape, dir string, seed uint64, rec *recorder) (*servePassOut, error) {
	if shape.maxResident > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	srv, hs, err := startServer(in.cfg, shape, dir)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	defer hs.Close()
	hc := hs.Client()
	defer hc.CloseIdleConnections()

	out := &servePassOut{acks: make([][]string, len(in.names))}
	for t := range out.acks {
		out.acks[t] = make([]string, len(in.batches[t]))
	}
	retries := 0
	// A batch that needs a retry already counts as failed, so one quick
	// retry is enough: a broken server must not stall the run in backoff.
	cl := client.New(client.Options{
		BaseURL:     hs.URL,
		HTTP:        hc,
		Seed:        seed,
		Retries:     1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  time.Millisecond,
		Sleep: func(d time.Duration) {
			retries++
			time.Sleep(d)
		},
	})
	var enc bytes.Buffer
	start := time.Now()
	prev := start
	for k := 0; k < shape.batches; k++ {
		for t, name := range in.names {
			batch := in.batches[t][k]
			before := retries
			bs := rec.begin(name, "batch", 0)
			if rec != nil {
				// The client encodes inside SendBatch; the traced run times
				// the same encoding on its own to split it out.
				es := rec.nest(bs, "encode", "serve")
				enc.Reset()
				if err := trace.Write(&enc, name, (&trace.Memory{TraceName: name, Records: batch}).Open()); err != nil {
					out.failed++
				}
				es.end()
			}
			rt := rec.nest(bs, "roundtrip", "serve")
			ack, err := cl.SendBatch(ctx, name, uint64(k+1), batch)
			now := time.Now()
			rt.end()
			bs.end()
			out.segs = append(out.segs, segment{wall: now.Sub(prev), ends: true})
			prev = now
			switch {
			case err != nil:
				out.failed++
				fmt.Printf("check: %s batch %d: %v\n", name, k+1, err)
			case retries != before || ack.Duplicate || ack.Records != len(batch):
				out.failed++
				fmt.Printf("check: %s batch %d: %d retries, duplicate %v, %d records acked\n", name, k+1, retries-before, ack.Duplicate, ack.Records)
			default:
				out.acks[t][k] = ack.Digest
			}
		}
	}
	out.wall = time.Since(start)
	out.batches = len(out.segs)
	out.counters, err = scrapeMetrics(hc, hs.URL)
	if err != nil {
		return nil, err
	}
	// Closing checkpoints every tenant when shedding is on; the deferred
	// closes above only cover the error paths.
	hs.Close()
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("closing the server: %w", err)
	}
	return out, nil
}

// scrapeMetrics reads the service's counters from GET /metrics.
func scrapeMetrics(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// serveCounters maps ledger names to the service's /metrics counters.
var serveCounters = map[string]string{
	"serve.shed":         "pdede_serve_tenants_shed_total",
	"serve.restores":     "pdede_serve_tenants_restored_total",
	"serve.checkpoints":  "pdede_serve_checkpoints_written_total",
	"serve.backpressure": "pdede_serve_backpressure_total",
	"serve.duplicates":   "pdede_serve_duplicate_batches_total",
}

// serveLoad is one traffic shape ready to replay: its generated input and
// the offline replay's digest after every batch.
type serveLoad struct {
	shape    serveShape
	in       *serveInput
	want     [][]string
	dir      string
	passes   int
	counters map[string][]float64 // per pass, by ledger name
}

func newServeLoad(shape serveShape, in *serveInput, dir string) (*serveLoad, error) {
	want, err := expectedAcks(in)
	if err != nil {
		return nil, err
	}
	return &serveLoad{shape: shape, in: in, want: want, dir: dir, counters: map[string][]float64{}}, nil
}

// digest fingerprints every tenant's final expected state.
func (l *serveLoad) digest() string {
	var final []string
	for _, w := range l.want {
		final = append(final, w[len(w)-1])
	}
	return digestStrings(final)
}

// pass runs one pass against a fresh server, counting every batch in res
// and failing any whose acknowledged digest differs from the offline
// replay's.
func (l *serveLoad) pass(ctx context.Context, seed uint64, res *result, rec *recorder) (*servePassOut, error) {
	l.passes++
	p, err := servePass(ctx, l.in, l.shape, filepath.Join(l.dir, fmt.Sprintf("pass%d", l.passes)), seed, rec)
	if err != nil {
		return nil, err
	}
	res.attempted += p.batches
	res.failed += p.failed
	for t := range p.acks {
		for k, d := range p.acks[t] {
			if d != "" && d != l.want[t][k] {
				res.failed++
				fmt.Printf("check: %s batch %d: served digest %s, offline replay %s\n", l.in.names[t], k+1, d, l.want[t][k])
			}
		}
	}
	for name, metric := range serveCounters {
		l.counters[name] = append(l.counters[name], p.counters[metric])
	}
	return p, nil
}

func runServe(ctx context.Context, o options) (*result, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	in, setups, err := repeatSetup(setupReps, func() (*serveInput, error) {
		return serveSetup(o.seed, serveSpec, filepath.Join(dir, "setup"))
	}, nil)
	if err != nil {
		return nil, err
	}
	load, err := newServeLoad(serveSpec, in, filepath.Join(dir, "serve"))
	if err != nil {
		return nil, err
	}
	res := &result{setup: setups, passRecords: in.records, passInstrs: in.instrs, digest: load.digest()}

	// A pass's wall is its closed loop; server start and shutdown are not
	// traffic.
	untraced := func() (time.Duration, error) {
		p, err := load.pass(ctx, o.seed, res, nil)
		if err != nil {
			return 0, err
		}
		res.segs = append(res.segs, p.segs)
		return p.wall, nil
	}
	traced := func(rec *recorder) (time.Duration, error) {
		p, err := load.pass(ctx, o.seed, res, rec)
		if err != nil {
			return 0, err
		}
		return p.wall, nil
	}
	var (
		tracedWalls []time.Duration
		rec         *recorder
	)
	if res.passes, tracedWalls, rec, err = phases(o, untraced, traced); err != nil {
		return nil, err
	}
	res.heapMB = liveHeapMB()
	if !o.trace {
		return res, nil
	}

	res.layers = map[string]float64{}
	for name, v := range load.counters {
		res.layers[name] = median(v)
	}
	// The durable write path, traced passes only: the same tenants'
	// traffic against a server that sheds (see shedSpec). Its batches are
	// checked like the measured ones.
	shedIn, err := serveSetup(o.seed, shedSpec, filepath.Join(dir, "shed-setup"))
	if err != nil {
		return nil, err
	}
	shed, err := newServeLoad(shedSpec, shedIn, filepath.Join(dir, "shed"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < tracedPasses; i++ {
		if _, err := shed.pass(ctx, o.seed, res, rec); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"serve.shed", "serve.restores", "serve.checkpoints"} {
		res.layers[name] = median(shed.counters[name])
	}
	sv := &serveStats{
		p50us: quietestP50us(res.segs),
		// Before its k-th batch (0-based) a shed tenant's journal holds k
		// batches.
		meanJournal: (shedSpec.batches - 1) * serveBatchRecords / 2,
	}
	if err := finishTraced(ctx, o, res, rec, tracedWalls, sv); err != nil {
		return nil, err
	}
	return res, nil
}

// quietestP50us is the median batch round trip of the quietest pass, in
// microseconds.
func quietestP50us(passes [][]segment) float64 {
	_, ops := quietest(passes)
	return percentile(seconds(ops), 0.5) * 1e6
}
