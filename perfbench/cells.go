package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"phpf"
	"phpf/internal/core"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// sizes fixes the input sizes of every workload. fullSize is what the
// command runs; the tests run tinySize.
type sizes struct {
	tomcatvN, tomcatvIter int
	dgefaN, dgefaExecN    int
	appspN, appspIter     int
	histN, histM, histIt  int
	dotN, dotM            int
	smoothN, smoothIter   int
	// Unique serve sources draw n uniformly from these ranges.
	missSmoothN, missTomcatvN [2]int
	// Open-loop rates of serve-open, in requests per second, and the
	// ladder max_rps climbs.
	lightRPS, heavyRPS float64
	ladder             []float64
}

var fullSize = sizes{
	tomcatvN: 65, tomcatvIter: 3,
	dgefaN: 96, dgefaExecN: 64,
	appspN: 12, appspIter: 2,
	histN: 256, histM: 32, histIt: 4,
	dotN: 48, dotM: 24,
	smoothN: 64, smoothIter: 4,
	missSmoothN: [2]int{48, 64}, missTomcatvN: [2]int{13, 17},
	lightRPS: 100, heavyRPS: 200,
	ladder: []float64{600, 800, 1000, 1200, 1400, 1600, 1800, 2000, 2200},
}

// maxCells is the memory budget of every run (the serve default).
const maxCells = 1 << 22

// cell is one operation of a cell workload: compile one program for one
// processor count and option set, then execute it on one backend.
type cell struct {
	name    string
	family  string // program family, which names its reference
	source  string
	procs   int
	opts    phpf.Options
	reduce  phpf.ReduceMode
	backend string // "sim" or "concurrent"
	// probe marks the family's representative cell, the one the traced
	// run re-runs on the concurrent backend at P = 1, 2, 4, 8.
	probe bool
	want  *expect
}

// expect is a cell's expected output.
type expect struct {
	arrays  map[string][]float64
	scalars map[string]float64
	tol     float64 // |got-want| <= tol*(1+|want|); ignored when exact
	// exact compares bitwise, simulated time and communication statistics
	// included (the differential oracle's rule).
	exact bool
	time  float64
	stats phpf.Stats
}

// paperOptions spells out every compiler option. The privatization facts
// come from directives, as in the paper's prototype. AutoPrivatizeArrays,
// the deprecated spelling of Privatization, is left false and unnamed so
// that the benchmark still builds once the field is removed.
func paperOptions(scalars phpf.ScalarStrategy, alignReductions, privatizeArrays, partial bool) phpf.Options {
	return phpf.Options{
		Scalars:               scalars,
		AlignReductions:       alignReductions,
		PrivatizeArrays:       privatizeArrays,
		Privatization:         phpf.PrivDirectives,
		PartialPrivatization:  partial,
		PrivatizeControlFlow:  true,
		DisableVectorization:  false,
		DisableDependenceTest: false,
		Verify:                false,
		DumpAfter:             "",
	}
}

var (
	replicationOpts = paperOptions(phpf.ScalarsReplicated, false, true, true)
	producerOpts    = paperOptions(phpf.ScalarsProducerAligned, true, true, true)
	selectedOpts    = paperOptions(phpf.ScalarsSelected, true, true, true)
)

// runOptions spells out every execution option of a cell.
func runOptions(backend string, procs int, reduce phpf.ReduceMode) phpf.RunOptions {
	ro := phpf.RunOptions{
		Params:             phpf.SP2Params(),
		MaxSeconds:         0,
		Profile:            false,
		Fault:              nil,
		CheckpointInterval: 0,
		Reduce:             reduce,
		Trace:              nil,
		MaxCells:           maxCells,
		HardCrashes:        false,
		// The simulator rejects the concurrent-only fields, so they stay
		// zero for it.
		Workers:      0,
		MailboxDepth: 0,
		StallTimeout: 0,
		MaxRestarts:  0,
	}
	if backend == "concurrent" {
		ro.Workers = procs
		// The executor's defaults at the time the benchmark was defined,
		// as numbers, so that a changed default does not move a figure.
		ro.MailboxDepth = 64
		ro.StallTimeout = 10 * time.Second
		ro.MaxRestarts = 3
	}
	return ro
}

// paperSimCells is the Table 1-3 cell set of bench_test.go plus the reduce
// kernels under the collective and auto strategies, all on the simulator.
func paperSimCells(sz sizes) []*cell {
	var cells []*cell
	add := func(name, family, src string, p int, opts phpf.Options, reduce phpf.ReduceMode, probe bool) {
		cells = append(cells, &cell{name: fmt.Sprintf("%s/P=%d", name, p), family: family, source: src,
			procs: p, opts: opts, reduce: reduce, backend: "sim", probe: probe})
	}
	tom := phpf.TOMCATVSource(sz.tomcatvN, sz.tomcatvIter)
	for _, v := range []struct {
		name string
		opts phpf.Options
	}{{"Replication", replicationOpts}, {"Producer", producerOpts}, {"Selected", selectedOpts}} {
		for _, p := range []int{1, 4, 16} {
			add("table1/tomcatv/"+v.name, "tomcatv", tom, p, v.opts, phpf.ReduceCollective, v.name == "Selected" && p == 1)
		}
	}
	dg := phpf.DGEFASource(sz.dgefaN)
	for _, v := range []struct {
		name string
		opts phpf.Options
	}{{"Default", paperOptions(phpf.ScalarsSelected, false, true, true)}, {"Aligned", selectedOpts}} {
		for _, p := range []int{4, 16} {
			add("table2/dgefa/"+v.name, "dgefa", dg, p, v.opts, phpf.ReduceCollective, v.name == "Aligned" && p == 4)
		}
	}
	for _, v := range []struct {
		name string
		twoD bool
		opts phpf.Options
	}{
		{"1D-NoPriv", false, paperOptions(phpf.ScalarsSelected, true, false, true)},
		{"1D-Priv", false, selectedOpts},
		{"2D-NoPartial", true, paperOptions(phpf.ScalarsSelected, true, true, false)},
		{"2D-Partial", true, selectedOpts},
	} {
		src := phpf.APPSPSource(sz.appspN, sz.appspN, sz.appspN, sz.appspIter, v.twoD)
		for _, p := range []int{4, 16} {
			add("table3/appsp/"+v.name, "appsp", src, p, v.opts, phpf.ReduceCollective, v.name == "2D-Partial" && p == 4)
		}
	}
	hist := phpf.HistogramSource(sz.histN, sz.histM, sz.histIt)
	dot := phpf.DotSweepSource(sz.dotN, sz.dotM)
	for _, mode := range []phpf.ReduceMode{phpf.ReduceCollective, phpf.ReduceAuto} {
		add("reduce/histogram/"+mode.String(), "histogram", hist, 8, selectedOpts, mode, mode == phpf.ReduceAuto)
		add("reduce/dotsweep/"+mode.String(), "dotsweep", dot, 8, selectedOpts, mode, mode == phpf.ReduceAuto)
	}
	return cells
}

// execScalingCells runs three programs on the concurrent backend at
// P = 1, 2, 4, 8.
func execScalingCells(sz sizes) []*cell {
	var cells []*cell
	for _, prog := range []struct {
		family string
		src    string
		reduce phpf.ReduceMode
	}{
		{"tomcatv", phpf.TOMCATVSource(sz.tomcatvN, sz.tomcatvIter), phpf.ReduceCollective},
		{"dgefa", phpf.DGEFASource(sz.dgefaExecN), phpf.ReduceCollective},
		{"histogram", phpf.HistogramSource(sz.histN, sz.histM, sz.histIt), phpf.ReduceAuto},
	} {
		for _, p := range []int{1, 2, 4, 8} {
			cells = append(cells, &cell{name: fmt.Sprintf("exec/%s/P=%d", prog.family, p), family: prog.family,
				source: prog.src, procs: p, opts: selectedOpts, reduce: prog.reduce, backend: "concurrent", probe: p == 1})
		}
	}
	return cells
}

// sequentialRefs computes the paper-sim references from the sequential
// implementations, at the tolerances of the repository's numerics tests.
func sequentialRefs(sz sizes) map[string]*expect {
	x, y, rxm, rym := programs.TOMCATVRef(sz.tomcatvN, sz.tomcatvIter)
	return map[string]*expect{
		"tomcatv": {arrays: map[string][]float64{"x": x, "y": y},
			scalars: map[string]float64{"rxm": rxm, "rym": rym}, tol: 1e-9},
		"dgefa":     {arrays: map[string][]float64{"a": programs.DGEFARef(sz.dgefaN)}, tol: 1e-9},
		"appsp":     {arrays: map[string][]float64{"v": programs.APPSPRef(sz.appspN, sz.appspN, sz.appspN, sz.appspIter)}, tol: 1e-9},
		"histogram": {arrays: map[string][]float64{"h": programs.HistogramRef(sz.histN, sz.histM, sz.histIt)}, tol: 0},
		"dotsweep":  {arrays: map[string][]float64{"r": programs.DotSweepRef(sz.dotN, sz.dotM)}, tol: 1e-12},
	}
}

// exactExpect turns a simulator report into a bitwise expectation.
func exactExpect(rep *phpf.Report) *expect {
	return &expect{arrays: rep.Arrays, scalars: rep.Scalars, exact: true, time: rep.Time, stats: rep.Stats}
}

// check compares a report with the expectation.
func (e *expect) check(rep *phpf.Report) error {
	if e.exact {
		if math.Float64bits(rep.Time) != math.Float64bits(e.time) {
			return fmt.Errorf("time %v, want %v", rep.Time, e.time)
		}
		if rep.Stats != e.stats {
			return fmt.Errorf("stats %v, want %v", rep.Stats, e.stats)
		}
		if len(rep.Arrays) != len(e.arrays) || len(rep.Scalars) != len(e.scalars) {
			return fmt.Errorf("%d arrays and %d scalars, want %d and %d",
				len(rep.Arrays), len(rep.Scalars), len(e.arrays), len(e.scalars))
		}
	}
	for name, want := range e.arrays {
		if err := e.match(name, rep.Arrays[name], want); err != nil {
			return err
		}
	}
	for name, want := range e.scalars {
		got, ok := rep.Scalars[name]
		if !ok {
			return fmt.Errorf("scalar %s missing", name)
		}
		if err := e.match(name, []float64{got}, []float64{want}); err != nil {
			return err
		}
	}
	return nil
}

func (e *expect) match(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d cells, want %d", name, len(got), len(want))
	}
	for i := range want {
		ok := math.Float64bits(got[i]) == math.Float64bits(want[i])
		if !e.exact {
			ok = math.Abs(got[i]-want[i]) <= e.tol*(1+math.Abs(want[i]))
		}
		if !ok {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// backendOf resolves a cell's backend.
func backendOf(name string) phpf.Backend {
	if name == "concurrent" {
		return phpf.Concurrent()
	}
	return phpf.Simulator()
}

// stepTimes are the wall times of parser.Parse and spmd.Generate; the
// profile has core.BuildAndAnalyze's per-pass times.
type stepTimes struct{ parse, spmd time.Duration }

// compile runs the front end through its three entry points, recording a
// span for each and one child span per pipeline pass from the profile.
func compile(tr *tracer, op string, parent int, src string, procs int, opts phpf.Options) (*phpf.Compiled, stepTimes, error) {
	var st stepTimes
	t0 := time.Now()
	id := tr.begin("parser.Parse", op, parent)
	ap, err := parser.Parse(src)
	tr.end(id)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	id = tr.begin("core.BuildAndAnalyze", op, parent)
	res, err := core.BuildAndAnalyze(ap, procs, opts)
	tr.end(id)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	if tr != nil {
		// The profile has durations only; lay the passes end to end from
		// the call's start.
		at := t1
		for _, ps := range res.Profile.Stats {
			tr.add("pass."+ps.Name, op, id, at, at.Add(ps.Wall))
			at = at.Add(ps.Wall)
		}
	}
	id = tr.begin("spmd.Generate", op, parent)
	prog := spmd.Generate(res)
	tr.end(id)
	t3 := time.Now()
	st = stepTimes{parse: t1.Sub(t0), spmd: t3.Sub(t2)}
	return &phpf.Compiled{Source: src, NProcs: procs, Opts: opts, Result: res, SPMD: prog}, st, nil
}

// runCell compiles and executes one cell and returns its report and the
// wall time of Compile+Execute.
func runCell(ctx context.Context, tr *tracer, op string, c *cell) (*phpf.Report, time.Duration, error) {
	start := time.Now()
	top := tr.begin("cell", op, 0)
	defer tr.end(top)
	comp, _, err := compile(tr, op, top, c.source, c.procs, c.opts)
	if err != nil {
		return nil, 0, err
	}
	name := "sim.RunContext"
	if c.backend == "concurrent" {
		name = "exec.Run"
	}
	id := tr.begin(name, op, top)
	rep, err := comp.Execute(ctx, backendOf(c.backend), runOptions(c.backend, c.procs, c.reduce))
	tr.end(id)
	return rep, time.Since(start), err
}

// simReference runs a cell's program on the simulator: the bitwise
// reference of a concurrent cell.
func simReference(ctx context.Context, c *cell) (*phpf.Report, error) {
	comp, _, err := compile(nil, "", 0, c.source, c.procs, c.opts)
	if err != nil {
		return nil, err
	}
	return comp.Execute(ctx, phpf.Simulator(), runOptions("sim", c.procs, c.reduce))
}
