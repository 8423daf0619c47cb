package main

// The traced run: the same workload with spans recorded around every call
// into a layer, followed by probes that push the workload's own inputs
// through each layer separately. The per-layer metrics come from this run
// only; the end-to-end metrics come from the untraced run.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"phpf"
	"phpf/internal/eval"
	"phpf/internal/ir"
	"phpf/internal/lexer"
	"phpf/internal/serve"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// passNames are the pipeline passes in pipeline order (core.Pipeline).
var passNames = []string{"ir", "cfg", "ssa", "constprop", "induction", "autopriv", "reduceplan", "mapping", "analyze", "slots"}

// probeRepeats is how many times the front-end probe compiles each cell;
// the front-end metrics are medians over the repeats.
const probeRepeats = 3

// hotReps is how many times the serve-stage probe repeats a sub-millisecond
// call to time it.
const hotReps = 50

func tracedCells(ctx context.Context, cfg config, chk *checker, b *cellBench) (metrics, error) {
	tr := newTracer()
	m := metrics{}
	// Each cell runs untraced and traced back to back, the order alternating
	// so that neither side always runs warm; the overhead is the median
	// ratio, which a slow stretch of the machine hits on both sides.
	rng := rand.New(rand.NewSource(cfg.seed))
	var ratios, light []float64
	cellMS := make([][]float64, len(b.cells))
	deadline := time.Now().Add(cfg.budget / 4)
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, i := range rng.Perm(len(b.cells)) {
			c := b.cells[i]
			var d [2]time.Duration // untraced, traced
			for _, k := range pairOrder(len(ratios)) {
				t := []*tracer{nil, tr}[k]
				rep, dk, err := runCell(ctx, t, fmt.Sprintf("%s#%d", c.name, len(ratios)), c)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", c.name, err)
				}
				chk.record(c.name, c.want.check(rep))
				d[k] = dk
			}
			ratios = append(ratios, float64(d[1])/float64(d[0]))
			cellMS[i] = append(cellMS[i], ms(d[0]))
			light = append(light, ms(d[0]))
		}
	}
	m.set("bench.trace_overhead_pct", "%", 100*(median(ratios)-1))
	m.set("loadgen.lat_ms_p50-light", "ms", quantile(light, 0.50))
	m.set("loadgen.lat_ms_p99-light", "ms", quantile(light, 0.99))

	heavy, err := b.heavyPhase(ctx, cfg, chk, cfg.budget/4)
	if err != nil {
		return nil, err
	}
	for k, v := range heavy {
		m[k] = v
	}
	if err := layerProbe(ctx, cfg, chk, tr, b.cells, m); err != nil {
		return nil, err
	}
	if err := execProbe(ctx, chk, tr, b.cells, m); err != nil {
		return nil, err
	}

	// Serve the cells the request surface can express, each twice (a miss,
	// then a hit), paced at twice the cell's own latency.
	sb, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	var served []*serveOp
	var gaps []time.Duration
	for i, c := range b.cells {
		op, err := opFor(ctx, c.name, c)
		if err != nil {
			return nil, err
		}
		if op != nil {
			served = append(served, op)
			gaps = append(gaps, time.Duration(2*median(cellMS[i])*float64(time.Millisecond)))
		}
	}
	var ops []*serveOp
	var dues []time.Duration
	at := time.Duration(0)
	for rep := 0; rep < 2; rep++ {
		for i, op := range served {
			ops = append(ops, op)
			dues = append(dues, at)
			at += gaps[i]
		}
	}
	_, err = tracedServing(ctx, cfg, chk, tr, sb, ops, dues, m)
	return m, err
}

func tracedServe(ctx context.Context, cfg config, chk *checker, b *serveBench) (metrics, error) {
	tr := newTracer()
	m := metrics{}
	// Each fixed request goes untraced and traced back to back, the order
	// alternating (unique sources would hit the cache the second time).
	fixed := append(append(append([]*serveOp{}, b.hot...), b.conc...), b.bad...)
	rng := b.phaseRNG(4)
	var ratios []float64
	deadline := time.Now().Add(cfg.budget / 4)
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, i := range rng.Perm(len(fixed)) {
			op := fixed[i]
			var r [2]reply // untraced, traced
			for _, k := range pairOrder(len(ratios)) {
				id := 0
				if k == 1 {
					id = tr.begin("http.request", fmt.Sprintf("%s#%d", op.name, len(ratios)), 0)
				}
				r[k] = b.send(ctx, op)
				tr.end(id)
			}
			checkAll(chk, r[:])
			ratios = append(ratios, r[1].latMS/r[0].latMS)
		}
	}
	m.set("bench.trace_overhead_pct", "%", 100*(median(ratios)-1))

	// Heavy load and the ladder: under full load the shared machine's share
	// of CPU sets these figures, and they spread too widely across runs to
	// gate, so only this run reports them.
	replies, err := b.openPhase(ctx, chk, nil, "heavy", 2, cfg.size.heavyRPS, cfg.budget/4)
	if err != nil {
		return nil, err
	}
	lat := latencies(replies)
	m.set("loadgen.lat_ms_p50-heavy", "ms", quantile(lat, 0.50))
	m.set("loadgen.lat_ms_p99-heavy", "ms", quantile(lat, 0.99))
	maxRPS, err := b.ladder(ctx, chk, cfg.budget/4)
	if err != nil {
		return nil, err
	}
	m.set("loadgen.max_rps", "1/s", maxRPS)

	var cells []*cell
	for _, op := range append(append([]*serveOp{}, b.hot...), b.conc...) {
		cells = append(cells, op.cell)
	}
	// The unique sources are layer inputs too: one of each kernel.
	rng = b.phaseRNG(99)
	for _, tomcatv := range []bool{false, true} {
		op, err := b.missOp(ctx, rng, tomcatv)
		if err != nil {
			return nil, err
		}
		cells = append(cells, op.cell)
	}
	for _, op := range b.conc {
		op.cell.probe = true
	}
	if err := layerProbe(ctx, cfg, chk, tr, cells, m); err != nil {
		return nil, err
	}
	if err := execProbe(ctx, chk, tr, cells, m); err != nil {
		return nil, err
	}

	// A fresh, warmed server under the light open-loop rate.
	sb, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	sb.hot, sb.conc, sb.bad = b.hot, b.conc, b.bad
	for _, op := range append(append([]*serveOp{}, sb.hot...), sb.conc...) {
		chk.record(op.name, check(sb.send(ctx, op)))
	}
	ops, dues, err := sb.schedule(ctx, sb.phaseRNG(3), cfg.size.lightRPS, cfg.budget/4)
	if err != nil {
		return nil, err
	}
	replies, err = tracedServing(ctx, cfg, chk, tr, sb, ops, dues, m)
	m.set("loadgen.lat_ms_p50-light", "ms", quantile(latencies(replies), 0.50))
	m.set("loadgen.lat_ms_p99-light", "ms", quantile(latencies(replies), 0.99))
	return m, err
}

// tracedServing sends ops on their schedule, then probes the serve stages
// on the answered requests and finishes the traced run: span file,
// self-time table. It returns the answers.
func tracedServing(ctx context.Context, cfg config, chk *checker, tr *tracer, sb *serveBench, ops []*serveOp, dues []time.Duration, m metrics) ([]reply, error) {
	replies, _ := sb.openLoop(ctx, tr, ops, dues)
	checkAll(chk, replies)
	snap := sb.srv.Snapshot()
	var queue, service, rtt, lag []float64
	bodies := map[string][]byte{}
	for _, r := range replies {
		if r.lagMS >= 0 {
			lag = append(lag, r.lagMS)
		}
		if r.status != 200 {
			continue
		}
		var resp serve.RunResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			continue // counted by the check above
		}
		// The server's own per-request timing, the measurement its
		// Snapshot histograms bucket.
		queue = append(queue, resp.TimingMS["queue"])
		service = append(service, resp.TimingMS["service"])
		rtt = append(rtt, r.rttMS)
		if _, ok := bodies[string(r.op.body)]; !ok {
			bodies[string(r.op.body)] = r.body
		}
	}
	m.set("serve.queue_ms_p99", "ms", quantile(queue, 0.99))
	m.set("serve.service_ms_p50", "ms", quantile(service, 0.50))
	m.set("serve.service_ms_p99", "ms", quantile(service, 0.99))
	m.set("serve.http_overhead_ms", "ms", quantile(rtt, 0.50)-quantile(service, 0.50))
	m.set("serve.cache_hit_rate", "ratio", snap.Cache.HitRate())
	m.set("serve.shed", "count", float64(snap.Shed))
	m.set("serve.status_5xx", "count", float64(snap.Status5xx))
	m.set("loadgen.lag_ms_p99", "ms", quantile(lag, 0.99))
	fmt.Fprintf(cfg.out, "served %d requests: snapshot service p50 %.3f ms p99 %.3f ms, queue p99 %.3f ms, hit rate %.3f\n",
		len(replies), snap.ServiceP50Ms, snap.ServiceP99Ms, snap.QueueP99Ms, snap.Cache.HitRate())

	if err := serveStageProbe(ctx, tr, ops, bodies, m); err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.out, "self time by span (traced run):")
	tr.printSelfTimes(cfg.out)
	if err := tr.write(cfg.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", cfg.spans)
	return replies, nil
}

// pairOrder is the order of the untraced (0) and traced (1) halves of the
// i-th overhead pair.
func pairOrder(i int) []int {
	if i%2 == 1 {
		return []int{1, 0}
	}
	return []int{0, 1}
}

// inertBackend counts statement instances and charges nothing: eval.Walk
// with it is the walker and expression evaluation alone.
type inertBackend struct{ instances int64 }

func (b *inertBackend) LoopEntry(*ir.Loop, *spmd.LoopPlan) error { return nil }
func (b *inertBackend) LoopExit(*ir.Loop, *spmd.LoopPlan) error  { return nil }
func (b *inertBackend) Statement(*ir.Stmt, *spmd.StmtPlan) error { b.instances++; return nil }
func (b *inertBackend) Redistribute(*ir.Stmt) error              { return nil }
func (b *inertBackend) Tick() error                              { return nil }

// ownerBackend also evaluates every instance's execution set, the
// ownership work every backend does per instance.
type ownerBackend struct {
	inertBackend
	st *eval.State
}

func (b *ownerBackend) Statement(_ *ir.Stmt, sp *spmd.StmtPlan) error {
	b.instances++
	if sp == nil {
		return nil
	}
	_, err := b.st.ExecSet(sp)
	return err
}

// walk runs eval.Walk over a fresh state with the given backend and
// returns its wall time and heap allocations.
func walk(tr *tracer, op, name string, c *cell, comp *phpf.Compiled, mk func(*eval.State) eval.Backend) (time.Duration, uint64, error) {
	budget := eval.Budget{MaxCells: maxCells}
	st, err := eval.NewStateBudget(comp.SPMD, budget)
	if err != nil {
		return 0, 0, err
	}
	if err := st.ConfigureReduce(c.reduce, budget); err != nil {
		return 0, 0, err
	}
	be := mk(st)
	_, objs0 := memCounters()
	id := tr.begin(name, op, 0)
	start := time.Now()
	err = eval.Walk(st, be)
	d := time.Since(start)
	tr.end(id)
	_, objs1 := memCounters()
	return d, objs1 - objs0, err
}

// layerProbe measures the front end, the evaluator and the simulator on
// every cell, and prints one row per cell.
func layerProbe(ctx context.Context, cfg config, chk *checker, tr *tracer, cells []*cell, m metrics) error {
	// Front end: every cell compiled probeRepeats times.
	front := map[string][]float64{}
	for rep := 0; rep < probeRepeats; rep++ {
		sum := map[string]float64{}
		for _, c := range cells {
			op := "probe/" + c.name
			id := tr.begin("lexer.Scan", op, 0)
			start := time.Now()
			toks, err := lexer.Scan(c.source)
			sum["lexer.scan_ms"] += ms(time.Since(start))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			sum["lexer.tokens"] += float64(len(toks))
			_, objs0 := memCounters()
			comp, st, err := compile(tr, op, 0, c.source, c.procs, c.opts)
			_, objs1 := memCounters()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			sum["compile.allocs"] += float64(objs1 - objs0)
			sum["parser.parse_ms"] += ms(st.parse)
			sum["spmd.generate_ms"] += ms(st.spmd)
			for _, ps := range comp.Profile().Stats {
				sum["pass."+ps.Name+"_ms"] += ms(ps.Wall)
				if ps.Rerun {
					sum["pass.reruns"]++
				}
			}
		}
		// Present even when no pass ran or re-ran.
		for _, n := range passNames {
			sum["pass."+n+"_ms"] += 0
		}
		sum["pass.reruns"] += 0
		for k, v := range sum {
			front[k] = append(front[k], v)
		}
	}
	units := map[string]string{"lexer.tokens": "count", "pass.reruns": "count", "compile.allocs": "count"}
	for k, vs := range front {
		unit := units[k]
		if unit == "" {
			unit = "ms"
		}
		m.set(k, unit, median(vs))
	}

	// Evaluator, ownership and simulator: every cell once.
	var instances, walkMS, ownerMS, ownerAllocs, simMS, simAllocs float64
	var stats phpf.Stats
	fmt.Fprintf(cfg.out, "%-36s %14s %10s %12s\n", "cell", "sim_sec", "messages", "bytes")
	for _, c := range cells {
		op := "probe/" + c.name
		comp, _, err := compile(nil, op, 0, c.source, c.procs, c.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		inert := &inertBackend{}
		dInert, aInert, err := walk(tr, op, "eval.Walk", c, comp, func(*eval.State) eval.Backend { return inert })
		if err != nil {
			return fmt.Errorf("%s: inert walk: %w", c.name, err)
		}
		dOwner, aOwner, err := walk(tr, op, "eval.Walk+ExecSet", c, comp, func(st *eval.State) eval.Backend {
			return &ownerBackend{st: st}
		})
		if err != nil {
			return fmt.Errorf("%s: ownership walk: %w", c.name, err)
		}
		_, objs0 := memCounters()
		id := tr.begin("sim.RunContext", op, 0)
		start := time.Now()
		rep, err := comp.Execute(ctx, phpf.Simulator(), runOptions("sim", c.procs, c.reduce))
		dSim := time.Since(start)
		tr.end(id)
		_, objs1 := memCounters()
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if c.want != nil && c.backend == "sim" {
			chk.record(c.name, c.want.check(rep))
		}
		instances += float64(inert.instances)
		walkMS += ms(dInert)
		ownerMS += ms(dOwner - dInert)
		ownerAllocs += float64(aOwner) - float64(aInert)
		simMS += ms(dSim)
		simAllocs += float64(objs1 - objs0)
		stats.Messages += rep.Stats.Messages
		stats.BytesMoved += rep.Stats.BytesMoved
		stats.Merges += rep.Stats.Merges
		fmt.Fprintf(cfg.out, "%-36s %14.9f %10d %12d\n", c.name, rep.Time, rep.Stats.Messages, rep.Stats.BytesMoved)
	}
	m.set("eval.instances", "count", instances)
	m.set("eval.walk_ms", "ms", walkMS)
	m.set("eval.walk_ns_per_instance", "ns", walkMS*1e6/instances)
	m.set("eval.ownership_ms", "ms", ownerMS)
	m.set("eval.ownership_allocs_per_instance", "count", ownerAllocs/instances)
	m.set("sim.run_ms", "ms", simMS)
	m.set("sim.allocs_per_instance", "count", simAllocs/instances)
	m.set("sim.accounting_ms", "ms", simMS-walkMS-ownerMS)
	m.set("machine.messages", "count", float64(stats.Messages))
	m.set("machine.bytes", "B", float64(stats.BytesMoved))
	m.set("machine.merges", "count", float64(stats.Merges))
	return nil
}

// execProcs are the processor counts of the concurrent-backend probe.
var execProcs = []int{1, 2, 4, 8}

// execProbe re-runs each representative cell's program on the concurrent
// backend at P = 1, 2, 4, 8, checked bitwise against the simulator, plus
// one traced run at P = 8 for the receive waits.
func execProbe(ctx context.Context, chk *checker, tr *tracer, cells []*cell, m metrics) error {
	runMS := map[int]float64{}
	allocs := map[int][]float64{}
	var execTotal, simTotal, waitMax, waitSum, busy float64
	var traffic int64
	var scaling []float64
	for _, base := range cells {
		if !base.probe {
			continue
		}
		wall := map[int]float64{}
		for _, p := range execProcs {
			c := *base
			c.procs, c.backend = p, "concurrent"
			c.name = fmt.Sprintf("probe/exec/%s/P=%d", base.family, p)
			comp, _, err := compile(nil, c.name, 0, c.source, c.procs, c.opts)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			start := time.Now()
			ref, err := comp.Execute(ctx, phpf.Simulator(), runOptions("sim", p, c.reduce))
			dSim := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			_, objs0 := memCounters()
			id := tr.begin("exec.Run", c.name, 0)
			start = time.Now()
			rep, err := comp.Execute(ctx, phpf.Concurrent(), runOptions("concurrent", p, c.reduce))
			dExec := time.Since(start)
			tr.end(id)
			_, objs1 := memCounters()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			chk.record(c.name, exactExpect(ref).check(rep))
			runMS[p] += ms(dExec)
			allocs[p] = append(allocs[p], float64(objs1-objs0))
			execTotal += ms(dExec)
			simTotal += ms(dSim)
			traffic += rep.TrafficMessages
			wall[p] = ms(dExec)

			if p != execProcs[len(execProcs)-1] {
				continue
			}
			ro := runOptions("concurrent", p, c.reduce)
			ro.Trace = &phpf.TraceOptions{Capacity: 1 << 17, SampleEvery: 1}
			start = time.Now()
			trep, err := comp.Execute(ctx, phpf.Concurrent(), ro)
			dTraced := time.Since(start)
			if err != nil {
				return fmt.Errorf("%s traced: %w", c.name, err)
			}
			chk.record(c.name+"/traced", exactExpect(ref).check(trep))
			perWorker := make([]float64, p)
			for _, e := range trep.Trace.Events() {
				if e.Kind == trace.Wait && int(e.Proc) < p && e.Proc >= 0 {
					perWorker[e.Proc] += e.Dur * 1000
				}
			}
			sort.Float64s(perWorker)
			for _, w := range perWorker {
				waitSum += w
			}
			waitMax += perWorker[p-1]
			busy += float64(p) * ms(dTraced)
		}
		scaling = append(scaling, wall[1]/wall[8])
	}
	for _, p := range execProcs {
		m.set(fmt.Sprintf("exec.run_ms.p%d", p), "ms", runMS[p])
		m.set(fmt.Sprintf("exec.allocs_per_run.p%d", p), "count", mean(allocs[p]))
	}
	m.set("exec.wall_over_sim", "ratio", execTotal/simTotal)
	m.set("exec.traffic_msgs", "count", float64(traffic))
	m.set("exec.wait_ms_max", "ms", waitMax)
	m.set("exec.wait_share", "ratio", waitSum/busy)
	m.set("exec.scaling_p8", "ratio", geomean(scaling))
	return nil
}

// serveStageProbe times the serve request path's stages one by one on every
// distinct request: decode, cache miss (compile) and hit, execute, encode.
func serveStageProbe(ctx context.Context, tr *tracer, ops []*serveOp, bodies map[string][]byte, m metrics) error {
	cache := serve.NewCache(len(ops) + 1)
	seen := map[string]bool{}
	var decodeUS, hitUS, encodeUS []float64
	var compileMS, executeMS float64
	for _, op := range ops {
		if op.cell == nil || seen[string(op.body)] {
			continue
		}
		seen[string(op.body)] = true
		c := op.cell
		id := tr.begin("serve.DecodeRunSpec", op.name, 0)
		start := time.Now()
		for i := 0; i < hotReps; i++ {
			if _, err := serve.DecodeRunSpec(op.body); err != nil {
				return fmt.Errorf("%s: %w", op.name, err)
			}
		}
		decodeUS = append(decodeUS, float64(time.Since(start).Nanoseconds())/1000/hotReps)
		tr.end(id)

		key := phpf.CacheKey(c.source, c.procs, c.opts, c.reduce)
		compileFn := func() (*phpf.Compiled, error) { return phpf.Compile(c.source, c.procs, c.opts) }
		id = tr.begin("serve.Cache.Get", op.name, 0)
		start = time.Now()
		comp, outcome, err := cache.Get(key, compileFn)
		compileMS += ms(time.Since(start))
		if err != nil || outcome != serve.CacheMiss {
			return fmt.Errorf("%s: first cache lookup: %v %v", op.name, outcome, err)
		}
		start = time.Now()
		for i := 0; i < hotReps; i++ {
			if _, outcome, _ := cache.Get(key, compileFn); outcome != serve.CacheHit {
				return fmt.Errorf("%s: repeated lookup missed", op.name)
			}
		}
		hitUS = append(hitUS, float64(time.Since(start).Nanoseconds())/1000/hotReps)
		tr.end(id)

		id = tr.begin("serve.execute", op.name, 0)
		start = time.Now()
		if _, err := comp.Execute(ctx, backendOf(c.backend), runOptions(c.backend, c.procs, c.reduce)); err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		executeMS += ms(time.Since(start))
		tr.end(id)

		if body, ok := bodies[string(op.body)]; ok {
			var resp serve.RunResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return fmt.Errorf("%s: %w", op.name, err)
			}
			id = tr.begin("serve.encode", op.name, 0)
			start = time.Now()
			for i := 0; i < hotReps; i++ {
				if _, err := json.Marshal(resp); err != nil {
					return fmt.Errorf("%s: %w", op.name, err)
				}
			}
			encodeUS = append(encodeUS, float64(time.Since(start).Nanoseconds())/1000/hotReps)
			tr.end(id)
		}
	}
	m.set("serve.decode_us", "us", mean(decodeUS))
	m.set("serve.cache_get_us_hit", "us", mean(hitUS))
	m.set("serve.compile_ms_miss", "ms", compileMS)
	m.set("serve.execute_ms", "ms", executeMS)
	m.set("serve.encode_us", "us", mean(encodeUS))
	return nil
}
