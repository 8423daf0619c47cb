package eval

import (
	"testing"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// recOp is one operation a Driver emitted.
type recOp struct {
	kind string
	skip bool // a VecSkip hoisted op or a skipped instance op
	req  *comm.Requirement
}

// opRecorder is a Consumer that records the driver's operation stream.
type opRecorder struct{ ops []recOp }

func (r *opRecorder) add(kind string, skip bool, req *comm.Requirement) error {
	r.ops = append(r.ops, recOp{kind: kind, skip: skip, req: req})
	return nil
}

func (r *opRecorder) Enter(bool) error { return r.add("enter", false, nil) }
func (r *opRecorder) Hoisted(req *comm.Requirement, op VectorizedOp) error {
	return r.add("hoisted", op.Kind == VecSkip, req)
}
func (r *opRecorder) Instance(_ *ir.Stmt, req *comm.Requirement, op InstanceOp, _ float64) error {
	return r.add("instance", op.Skip, req)
}
func (r *opRecorder) Compute(*ir.Stmt, dist.ProcSet, float64) error {
	return r.add("compute", false, nil)
}
func (r *opRecorder) Exit() error { return r.add("exit", false, nil) }
func (r *opRecorder) Merge(*spmd.Combine, int64, []MergeHop) error {
	return r.add("merge", false, nil)
}
func (r *opRecorder) Collective(*spmd.Combine, dist.ProcSet) error {
	return r.add("collective", false, nil)
}
func (r *opRecorder) CopyOut(*core.ScalarMapping, int) error { return r.add("copyout", false, nil) }
func (r *opRecorder) Redistribute(*ir.Stmt, int64) error     { return r.add("redist", false, nil) }
func (r *opRecorder) Tick() error                            { return r.add("tick", false, nil) }
func (r *opRecorder) Site() error                            { return r.add("site", false, nil) }

// TestDriverPlanRules pins where the driver places crash-check sites and
// which hoisted transfers it emits, at P=4 under ReduceAuto: APPSP-2D has
// skipped hoisted transfers, APPSP-1D redistributions, Histogram and
// DotSweep privatized elementwise combines (DotSweep's with hoisted
// operands).
func TestDriverPlanRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// want lists operation kinds the run must exercise.
		want []string
	}{
		{"appsp2d", programs.APPSP(6, 6, 6, 1, true), []string{"skipped-hoisted"}},
		{"appsp1d", programs.APPSP(6, 6, 6, 1, false), []string{"redist"}},
		{"histogram", programs.Histogram(32, 8, 2), []string{"merge"}},
		{"dotsweep", programs.DotSweep(16, 4), []string{"merge", "privatized-hoisted"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.src, 4)
			st, err := NewState(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.ConfigureReduce(core.ReduceAuto, Budget{}); err != nil {
				t.Fatal(err)
			}
			rec := &opRecorder{}
			if err := Walk(st, NewDriver(st, rec, machine.SP2())); err != nil {
				t.Fatal(err)
			}
			privArray := func(req *comm.Requirement) bool {
				sp := p.PlanOf(req.Stmt)
				return sp != nil && st.PrivatizedActive(sp.Combine) && sp.Combine.Mapping == nil
			}
			seen := map[string]int{}
			for i, op := range rec.ops {
				nextSite := i+1 < len(rec.ops) && rec.ops[i+1].kind == "site"
				seen[op.kind]++
				switch op.kind {
				case "hoisted":
					if op.skip {
						seen["skipped-hoisted"]++
					}
					if op.skip == nextSite {
						t.Fatalf("op %d: hoisted %v (skipped=%v) followed by site=%v", i, op.req, op.skip, nextSite)
					}
					if privArray(op.req) {
						t.Fatalf("op %d: privatized combine %v emitted a hoisted transfer", i, op.req)
					}
				case "instance":
					if op.skip == nextSite {
						t.Fatalf("op %d: instance %v (skipped=%v) followed by site=%v", i, op.req, op.skip, nextSite)
					}
				case "redist", "tick":
					if !nextSite {
						t.Fatalf("op %d: %s not followed by a site", i, op.kind)
					}
				}
			}
			for _, l := range p.Res.Prog.Loops {
				if lp := p.LoopPlanOf(l); lp != nil {
					for _, req := range lp.Hoisted {
						if privArray(req) {
							seen["privatized-hoisted"]++
						}
					}
				}
			}
			for _, k := range tc.want {
				if seen[k] == 0 {
					t.Errorf("the run exercised no %s operation: %v", k, seen)
				}
			}
		})
	}
}
