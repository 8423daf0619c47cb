package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"phpf"
	"phpf/internal/serve"
)

// p99LimitMS is the latency limit of max_rps: the highest ladder rate whose
// p99 latency, timed from when each request was due, stays under it.
const p99LimitMS = 100

// Shares of the serve-open traffic mix; malformed bodies take the rest.
const (
	shareHot  = 0.70
	shareMiss = 0.15
	shareConc = 0.10
)

// serveOp is one request of serve-open and its expected answer.
type serveOp struct {
	name string
	body []byte
	// cell is the direct-API equivalent of the request (nil for
	// malformed bodies); a 200 must match want, its reference run on the
	// simulator.
	cell *cell
	want *expect
	// code is the diagnostic code a malformed body must be refused with
	// (status 400).
	code string
}

// specFor renders a cell as a serve request, when the request surface can
// express its options (opt presets plus a privatization mode).
func specFor(c *cell) (*serve.RunSpec, bool) {
	base := c.opts
	base.Privatization = phpf.PrivDirectives
	opt := ""
	switch base {
	case replicationOpts:
		opt = "naive"
	case producerOpts:
		opt = "producer"
	case selectedOpts:
		opt = "selected"
	default:
		return nil, false
	}
	return &serve.RunSpec{
		Source:       c.source,
		Figure:       "",
		Procs:        c.procs,
		Opt:          opt,
		Privatize:    c.opts.Privatization.String(),
		Reduce:       c.reduce.String(),
		Backend:      c.backend,
		TimeoutMS:    10000,
		MaxCells:     maxCells,
		ReturnArrays: false,
		Chaos:        nil,
	}, true
}

// opFor turns a cell into a request and runs its reference; a cell the
// request surface cannot express yields nil.
func opFor(ctx context.Context, name string, c *cell) (*serveOp, error) {
	spec, ok := specFor(c)
	if !ok {
		return nil, nil
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	rep, err := simReference(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", name, err)
	}
	return &serveOp{name: name, body: body, cell: c, want: exactExpect(rep)}, nil
}

// malformedOps are bodies the server must refuse with a coded 400.
func malformedOps() []*serveOp {
	bodies := []struct{ name, body string }{
		{"bad/truncated", `{"source": "program x", "procs": 4`},
		{"bad/unknown-field", `{"figure": "figure1", "procs": 4, "bogus": true}`},
		{"bad/procs", `{"figure": "figure1", "procs": 0}`},
		{"bad/figure", `{"figure": "figure9", "procs": 4}`},
		{"bad/trailing", `{"figure": "figure1", "procs": 4} {}`},
		{"bad/backend", `{"figure": "figure1", "procs": 4, "backend": "gpu"}`},
	}
	ops := make([]*serveOp, len(bodies))
	for i, b := range bodies {
		ops[i] = &serveOp{name: b.name, body: []byte(b.body), code: "E005"}
	}
	return ops
}

// serveCell builds a request cell with the serve-open profile: inferred
// privatization, automatic reduction strategy.
func serveCell(name, src string, procs int, opts phpf.Options, backend string) *cell {
	opts.Privatization = phpf.PrivInfer
	return &cell{name: name, family: name, source: src, procs: procs, opts: opts,
		reduce: phpf.ReduceAuto, backend: backend}
}

// serveSources are the cache-hot programs of serve-open.
func serveSources(sz sizes) []struct{ name, src string } {
	var out []struct{ name, src string }
	for _, f := range []string{"figure1", "figure5", "figure6", "figure7"} {
		src, _ := phpf.FigureSource(f)
		out = append(out, struct{ name, src string }{f, src})
	}
	return append(out, struct{ name, src string }{"smooth", phpf.SmoothSource(sz.smoothN, sz.smoothIter)})
}

// serveBench is serve-open after set-up: a running server, its client, and
// the fixed request sets.
type serveBench struct {
	cfg    config
	srv    *serve.Server
	http   *http.Server
	done   chan struct{}
	url    string
	client *http.Client
	conns  int

	hot, conc, bad []*serveOp
	// misses numbers the unique sources.
	misses int
}

// phaseRNG is the input stream of one phase, so a phase's inputs depend
// only on the seed, not on how much an earlier phase got done.
func (b *serveBench) phaseRNG(phase int64) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*1_000_003 + phase))
}

func newServeBench(ctx context.Context, cfg config, chk *checker) (*serveBench, error) {
	b := &serveBench{cfg: cfg, conns: runtime.NumCPU()}
	for _, s := range serveSources(cfg.size) {
		for _, o := range []struct {
			name string
			opts phpf.Options
		}{{"naive", replicationOpts}, {"producer", producerOpts}, {"selected", selectedOpts}} {
			name := "hot/" + s.name + "/" + o.name
			op, err := opFor(ctx, name, serveCell(name, s.src, 8, o.opts, "sim"))
			if err != nil {
				return nil, err
			}
			b.hot = append(b.hot, op)
		}
		name := "conc/" + s.name
		op, err := opFor(ctx, name, serveCell(name, s.src, 4, selectedOpts, "concurrent"))
		if err != nil {
			return nil, err
		}
		b.conc = append(b.conc, op)
	}
	b.bad = malformedOps()

	if err := b.start(); err != nil {
		return nil, err
	}
	// Warm the cache: every hot request once, checked.
	for _, op := range append(append([]*serveOp{}, b.hot...), b.conc...) {
		chk.record(op.name, check(b.send(ctx, op)))
	}
	return b, nil
}

// startServer starts a serve.Server with every limit spelled out on a
// loopback listener, with a client of at most one connection per CPU.
func startServer(cfg config) (*serveBench, error) {
	b := &serveBench{cfg: cfg, conns: runtime.NumCPU()}
	return b, b.start()
}

func (b *serveBench) start() error {
	b.srv = serve.New(serve.Config{
		MaxProcs:       64,
		MaxSourceBytes: 1 << 20,
		MaxBodyBytes:   2<<20 + 4096,
		CacheSize:      128,
		MaxConcurrent:  16, // the admission defaults, as numbers
		PerTenant:      8,
		QueueDepth:     32,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
		MaxCells:       maxCells,
		Chaos:          false,
		Logf:           func(format string, args ...any) { fmt.Fprintf(os.Stderr, "server: "+format+"\n", args...) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.url = "http://" + ln.Addr().String() + "/v1/run"
	b.http = &http.Server{Handler: b.srv}
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		_ = b.http.Serve(ln) // returns http.ErrServerClosed after close
	}()
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.conns,
		MaxIdleConnsPerHost: b.conns,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the server and waits for it and its connections to end.
func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.http.Shutdown(ctx) // in-flight requests have all returned by now
	<-b.done
}

// missOp draws a unique source, Smooth (tomcatv false) or TOMCATV with a
// seeded n, tagged with a comment so that every one misses the cache.
func (b *serveBench) missOp(ctx context.Context, rng *rand.Rand, tomcatv bool) (*serveOp, error) {
	b.misses++
	sz := b.cfg.size
	if !tomcatv {
		n := sz.missSmoothN[0] + rng.Intn(sz.missSmoothN[1]-sz.missSmoothN[0]+1)
		src := fmt.Sprintf("%s! request %d-%d\n", phpf.SmoothSource(n, 2), b.cfg.seed, b.misses)
		return opFor(ctx, "miss/smooth", serveCell("miss/smooth", src, 4, selectedOpts, "sim"))
	}
	n := sz.missTomcatvN[0] + rng.Intn(sz.missTomcatvN[1]-sz.missTomcatvN[0]+1)
	src := fmt.Sprintf("%s! request %d-%d\n", phpf.TOMCATVSource(n, 1), b.cfg.seed, b.misses)
	return opFor(ctx, "miss/tomcatv", serveCell("miss/tomcatv", src, 4, selectedOpts, "sim"))
}

// drawOp draws one request of the serve-open mix.
func (b *serveBench) drawOp(ctx context.Context, rng *rand.Rand) (*serveOp, error) {
	switch u := rng.Float64(); {
	case u < shareHot:
		return b.hot[rng.Intn(len(b.hot))], nil
	case u < shareHot+shareMiss:
		return b.missOp(ctx, rng, rng.Intn(2) == 1)
	case u < shareHot+shareMiss+shareConc:
		return b.conc[rng.Intn(len(b.conc))], nil
	default:
		return b.bad[rng.Intn(len(b.bad))], nil
	}
}

// reply is one answered request.
type reply struct {
	op     *serveOp
	status int
	body   []byte
	err    error
	latMS  float64 // from its release on schedule (see openLoop), or from the send
	rttMS  float64 // from when it was sent
	lagMS  float64 // how late the generator released it (open loop; -1 otherwise)
	end    time.Time
}

// send posts one request and reads the whole answer.
func (b *serveBench) send(ctx context.Context, op *serveOp) reply {
	start := time.Now()
	r := reply{op: op, lagMS: -1}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url, bytes.NewReader(op.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.err = err
	r.end = time.Now()
	r.latMS = ms(r.end.Sub(start))
	r.rttMS = r.latMS
	return r
}

// check compares an answer with what the request must get.
func check(r reply) error {
	switch {
	case r.err != nil:
		return r.err
	case r.op.cell == nil:
		var e serve.ErrorResponse
		if r.status != http.StatusBadRequest {
			return fmt.Errorf("status %d, want 400", r.status)
		}
		if err := json.Unmarshal(r.body, &e); err != nil {
			return fmt.Errorf("error body: %w", err)
		}
		if e.Code != r.op.code {
			return fmt.Errorf("code %q, want %q", e.Code, r.op.code)
		}
		return nil
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("response body: %w", err)
	}
	want := r.op.want
	if math.Float64bits(float64(resp.Time)) != math.Float64bits(want.time) {
		return fmt.Errorf("time %v, want %v", float64(resp.Time), want.time)
	}
	if resp.Stats != want.stats.String() {
		return fmt.Errorf("stats %q, want %q", resp.Stats, want.stats.String())
	}
	if len(resp.Scalars) != len(want.scalars) {
		return fmt.Errorf("%d scalars, want %d", len(resp.Scalars), len(want.scalars))
	}
	for name, w := range want.scalars {
		g, ok := resp.Scalars[name]
		if !ok {
			return fmt.Errorf("scalar %s missing", name)
		}
		if got := float64(g); math.Float64bits(got) != math.Float64bits(w) && !(math.IsNaN(got) && math.IsNaN(w)) {
			return fmt.Errorf("scalar %s = %v, want %v", name, got, w)
		}
	}
	return nil
}

// checkAll verifies a phase's answers after it ran; a 429 or a 5xx counts
// as a failure like a wrong answer.
func checkAll(chk *checker, replies []reply) {
	for _, r := range replies {
		chk.record(r.op.name, check(r))
	}
}

// poisson draws seeded arrival offsets at the given rate over the span.
func poisson(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var dues []time.Duration
	for t := rng.ExpFloat64() / rate; t < span.Seconds(); t += rng.ExpFloat64() / rate {
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
	return dues
}

// openLoop sends ops[i] at start+dues[i] over at most b.conns connections:
// one dispatcher releases requests on schedule to one worker per
// connection. A request that finds every connection busy waits for one,
// and that wait counts in its latency. The dispatcher's own lateness (its
// sleeps wake up to a millisecond late) is the generator's, not the
// server's: it is reported as lag, and a request's clock starts at the
// later of its due time and the dispatcher's last wake-up.
func (b *serveBench) openLoop(ctx context.Context, tr *tracer, ops []*serveOp, dues []time.Duration) (replies []reply, start time.Time) {
	type job struct {
		i    int
		from time.Time
		lag  float64
	}
	replies = make([]reply, len(ops))
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				id := tr.begin("http.request", fmt.Sprintf("%s#%d", ops[j.i].name, j.i), 0)
				r := b.send(ctx, ops[j.i])
				tr.end(id)
				r.latMS = ms(r.end.Sub(j.from))
				r.lagMS = j.lag
				replies[j.i] = r
			}
		}()
	}
	start = time.Now()
	woke := start
	for i := range ops {
		due := start.Add(dues[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			woke = time.Now()
		}
		from, lag := due, 0.0
		if woke.After(due) {
			from, lag = woke, ms(woke.Sub(due))
		}
		jobs <- job{i: i, from: from, lag: lag}
	}
	close(jobs)
	wg.Wait()
	return replies, start
}

// schedule draws a seeded open-loop schedule of the traffic mix, with the
// references of its unique sources.
func (b *serveBench) schedule(ctx context.Context, rng *rand.Rand, rate float64, span time.Duration) ([]*serveOp, []time.Duration, error) {
	dues := poisson(rng, rate, span)
	ops := make([]*serveOp, len(dues))
	for i := range ops {
		op, err := b.drawOp(ctx, rng)
		if err != nil {
			return nil, nil, err
		}
		ops[i] = op
	}
	return ops, dues, nil
}

// passOps is one closed-loop pass over every serve cell: each hot and
// concurrent request, each malformed body, and one fresh unique source of
// each kernel.
func (b *serveBench) passOps(ctx context.Context, rng *rand.Rand) ([]*serveOp, error) {
	ops := append(append(append([]*serveOp{}, b.hot...), b.conc...), b.bad...)
	for _, tomcatv := range []bool{false, true} {
		op, err := b.missOp(ctx, rng, tomcatv)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// pass sends the ops one at a time on one connection.
func (b *serveBench) pass(ctx context.Context, ops []*serveOp) []reply {
	replies := make([]reply, len(ops))
	for i, op := range ops {
		replies[i] = b.send(ctx, op)
	}
	return replies
}

func latencies(replies []reply) []float64 {
	out := make([]float64, len(replies))
	for i, r := range replies {
		out[i] = r.latMS
	}
	return out
}

// serveSetupRepeats is how many times serve-open sets up. Its set-up takes
// about 35 ms, and a shared machine's speed changes from one second to the
// next, so it repeats often enough to span a few seconds, as the cell
// workloads' set-ups do.
const serveSetupRepeats = 80

func runServeOpen(ctx context.Context, cfg config, chk *checker) (metrics, error) {
	var b *serveBench
	var setups []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = newServeBench(ctx, cfg, chk); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	if cfg.trace {
		return tracedServe(ctx, cfg, chk, b)
	}
	// Closed-loop passes and light open-loop traffic alternate in
	// serveChunks rounds, so that each figure samples the whole run rather
	// than one stretch of a shared machine's load.
	// Latencies are divided by the median reference kernel time of the
	// passes of their round (see refKernel).
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	passes := &passStats{ref: newRefKernel()}
	perKind := map[string][]float64{}
	for k := 0; k < serveChunks; k++ {
		first := len(passes.refs)
		if err := b.passPhase(ctx, chk, passes, cfg.budget/3/serveChunks); err != nil {
			return nil, err
		}
		ref := median(passes.refs[first:])
		replies, err := b.openPhase(ctx, chk, nil, "light", int64(1000+k), cfg.size.lightRPS, cfg.budget*2/3/serveChunks)
		if err != nil {
			return nil, err
		}
		for _, r := range replies {
			perKind[r.op.name] = append(perKind[r.op.name], r.latMS/ref)
		}
	}
	passes.report(b, m)
	// Each request kind counts once, so that the misses (the front end)
	// move the figure as much as the hits do.
	kinds := make([]string, 0, len(perKind))
	for n := range perKind {
		kinds = append(kinds, n)
	}
	sort.Strings(kinds)
	fmt.Fprintf(cfg.out, "light open loop, median latency from due time over reference kernel time by request kind:\n")
	medians := make([]float64, len(kinds))
	for i, n := range kinds {
		medians[i] = median(perKind[n])
		fmt.Fprintf(cfg.out, "  %-36s %10.5f ref  (%d requests)\n", n, medians[i], len(perKind[n]))
	}
	m.set("cell_ref_geomean", "ref", geomean(medians))
	return m, nil
}

// openPhase sends seeded open-loop traffic at the given rate for the given
// time, checks every answer, and returns the answers.
func (b *serveBench) openPhase(ctx context.Context, chk *checker, tr *tracer, name string, phase int64, rate float64, span time.Duration) ([]reply, error) {
	ops, dues, err := b.schedule(ctx, b.phaseRNG(phase), rate, span)
	if err != nil {
		return nil, err
	}
	replies, _ := b.openLoop(ctx, tr, ops, dues)
	checkAll(chk, replies)
	lat := latencies(replies)
	fmt.Fprintf(b.cfg.out, "%s: %d requests at %.0f/s over %d connections, p50 %.3f ms, p99 %.3f ms\n",
		name, len(replies), rate, b.conns, quantile(lat, 0.50), quantile(lat, 0.99))
	return replies, nil
}

// serveChunks is how many rounds of passes and light traffic serve-open
// alternates.
const serveChunks = 5

// passStats accumulates closed-loop passes over the serve cells and the
// reference kernel run after each.
type passStats struct {
	ref                              *refKernel
	sweeps, sweepRefs, refs, allocMB []float64
}

// passPhase runs closed-loop passes over the serve cells for the given time
// (at least one pass).
func (b *serveBench) passPhase(ctx context.Context, chk *checker, ps *passStats, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		ops, err := b.passOps(ctx, b.phaseRNG(int64(100_000+len(ps.sweeps))))
		if err != nil {
			return err
		}
		bytes0, _ := memCounters()
		replies := b.pass(ctx, ops)
		bytes1, _ := memCounters()
		ref := ps.ref.run()
		checkAll(chk, replies)
		total := 0.0
		for _, r := range replies {
			total += r.latMS
		}
		ps.sweeps = append(ps.sweeps, total/1000)
		ps.sweepRefs = append(ps.sweepRefs, total/ref)
		ps.refs = append(ps.refs, ref)
		ps.allocMB = append(ps.allocMB, float64(bytes1-bytes0)/(1<<20))
	}
	return nil
}

// report sets the pass metrics.
func (ps *passStats) report(b *serveBench, m metrics) {
	fmt.Fprintf(b.cfg.out, "passes: %d closed-loop passes over every request kind, one request at a time; pass seconds median %.4f\n",
		len(ps.sweeps), median(ps.sweeps))
	fmt.Fprintf(b.cfg.out, "reference kernel after each pass, ms: median %.3f, quartiles %.3f %.3f\n",
		median(ps.refs), quantile(ps.refs, 0.25), quantile(ps.refs, 0.75))
	var simSec []float64
	for _, op := range append(append([]*serveOp{}, b.hot...), b.conc...) {
		simSec = append(simSec, op.want.time)
	}
	m.set("sweep_ref", "ref", median(ps.sweepRefs))
	m.set("alloc_mb_per_sweep", "MB", median(ps.allocMB))
	m.set("sim_sec_geomean", "sim-s", geomean(simSec))
}

// ladder climbs the fixed rates, each for an equal share of the budget,
// until one misses: its p99 (from when requests were due) exceeds
// p99LimitMS, a request fails, or the queue does not drain within the limit
// once arrivals stop (a growing backlog). It returns the throughput at which
// p99 crosses the limit, interpolated between the achieved throughputs of
// the last rate that met it and the first that missed it on latency; the
// top rate's throughput if all met it, the first rate's if none did.
func (b *serveBench) ladder(ctx context.Context, chk *checker, budget time.Duration) (float64, error) {
	step := budget / time.Duration(len(b.cfg.size.ladder))
	var prevRPS, prevP99 float64
	for i, rate := range b.cfg.size.ladder {
		ops, dues, err := b.schedule(ctx, b.phaseRNG(int64(10+i)), rate, step)
		if err != nil {
			return 0, err
		}
		if len(ops) == 0 {
			continue // a step too short to draw an arrival
		}
		replies, start := b.openLoop(ctx, nil, ops, dues)
		failed := chk.failures()
		checkAll(chk, replies)
		last := start
		for _, r := range replies {
			if r.end.After(last) {
				last = r.end
			}
		}
		achieved := float64(len(replies)) / last.Sub(start).Seconds()
		p99 := quantile(latencies(replies), 0.99)
		drained := ms(last.Sub(start.Add(dues[len(dues)-1]))) <= p99LimitMS
		fmt.Fprintf(b.cfg.out, "ladder: %6.0f/s offered, %8.1f/s achieved, p99 %8.3f ms, drained %t\n",
			rate, achieved, p99, drained)
		switch {
		case chk.failures() != failed:
			if i == 0 {
				return achieved, nil
			}
			return prevRPS, nil
		case p99 <= p99LimitMS && drained:
			prevRPS, prevP99 = achieved, p99
			continue
		case i == 0:
			return achieved, nil
		}
		p99 = math.Max(p99, p99LimitMS)
		frac := (p99LimitMS - prevP99) / (p99 - prevP99)
		return prevRPS + frac*math.Max(achieved-prevRPS, 0), nil
	}
	return prevRPS, nil
}
