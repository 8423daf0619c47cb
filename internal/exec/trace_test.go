package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/programs"
	"phpf/internal/sim"
	"phpf/internal/trace"
)

// TestDifferTraceAgreement extends the differential oracle to event level:
// with tracing on, the per-communication-class message/byte counts and the
// reduction-collective count recorded by the concurrent executor must equal
// the simulator's exactly, for every program, strategy, and processor count.
// Under -race this also exercises concurrent emission into the per-worker
// shards against the live atomic counters.
func TestDifferTraceAgreement(t *testing.T) {
	for progName, src := range oraclePrograms() {
		for stratName, opts := range strategies() {
			for _, nprocs := range []int{1, 4, 8} {
				src, opts, nprocs := src, opts, nprocs
				t.Run(fmt.Sprintf("%s/%s/p%d", progName, stratName, nprocs), func(t *testing.T) {
					prog := compile(t, src, nprocs, opts)
					if _, serr := sim.RunContext(context.Background(), prog, sim.Config{}); serr != nil {
						t.Skip("not a runnable program")
					}
					d := Differ{Trace: &trace.Options{}}
					rep, err := d.Run(context.Background(), prog)
					if err != nil {
						t.Fatalf("differ: %v", err)
					}
					if !rep.Match() {
						t.Fatal(rep.String())
					}
					if !rep.Sim.Trace.Enabled() || !rep.Exec.Trace.Enabled() {
						t.Fatal("expected both results to carry a trace")
					}
					// The class totals the comparison relied on must come
					// from real activity whenever the stats say messages
					// flowed as planned communication.
					if rep.Sim.Trace.KindCount(trace.Send) == 0 && rep.Sim.Stats.PointToPoint > 0 {
						t.Fatal("sim trace recorded no sends despite point-to-point traffic")
					}
				})
			}
		}
	}
}

// faultEvents counts a trace's fault-protocol events by kind, statement and
// class, from the stored event stream.
func faultEvents(r *trace.Recorder) map[string]int {
	out := map[string]int{}
	for _, e := range r.Events() {
		if e.Kind == trace.Fault || e.Kind == trace.Checkpoint || e.Kind == trace.Restart {
			out[fmt.Sprintf("%s stmt=%d class=%s", e.Kind, e.Stmt, e.Class)]++
		}
	}
	return out
}

// TestFaultEventAttribution: under a lossy plan both backends emit the same
// fault events on the same statements and communication classes, and the
// oracle compares them at that granularity.
func TestFaultEventAttribution(t *testing.T) {
	prog := compile(t, programs.DGEFA(12), 4, core.DefaultOptions())
	plan := &fault.Plan{Seed: 7, LossRate: 0.2}
	d := Differ{Fault: plan, Trace: &trace.Options{}}
	rep, err := d.Run(context.Background(), prog)
	if err != nil {
		t.Fatalf("differ: %v", err)
	}
	if !rep.Match() {
		t.Fatal(rep.String())
	}
	want, got := faultEvents(rep.Sim.Trace), faultEvents(rep.Exec.Trace)
	if len(want) == 0 {
		t.Fatal("the plan produced no fault events")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exec fault events %v, sim %v", got, want)
	}
	if _, ok := want["fault stmt=-1 class=none"]; ok {
		t.Fatalf("sim fault events lack attribution: %v", want)
	}
}

// TestDifferComparesFaultAttribution: two traces with the same number of
// fault events, attributed to different statements, disagree.
func TestDifferComparesFaultAttribution(t *testing.T) {
	traced := func(stmt int32) *trace.Recorder {
		r := trace.New(2, 1, trace.Options{})
		r.Emit(0, trace.Event{Kind: trace.Fault, Class: dist.CommShift, Proc: 0, Peer: -1, Stmt: stmt, Req: -1})
		return r
	}
	r := &DiffReport{
		Sim:  &sim.Result{Trace: traced(3), Scalars: map[string]float64{}, Arrays: map[string][]float64{}},
		Exec: &Result{Trace: traced(-1), Scalars: map[string]float64{}, Arrays: map[string][]float64{}},
	}
	r.compare()
	if r.Match() {
		t.Fatal("differently attributed fault events compared equal")
	}
}
