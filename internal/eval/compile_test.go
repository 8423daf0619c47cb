package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/programs"
	"phpf/internal/spmd"
)

// sameResult reports whether two evaluations agree: the same float64 bits,
// or the same error text.
func sameResult(a float64, aerr error, b float64, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func showResult(v float64, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("%v (%#x)", v, math.Float64bits(v))
}

const evalTableSrc = `
program t
integer k, m, i
real r, z
real u(8)
do i = 1, k
  u(i) = k + m + r + z
end do
end
`

// TestCompiledMatchesReference compares the compiled evaluator, in value and
// in integer (subscript) context, with the reference interpreter on the
// edges of the exact int64 path: ±2^53 and ±(2^53+1) reached through
// constants, scalars and loop indices, int64 product overflow, non-integral
// and negative-zero reals in subscripts, mod/max/min, integer division, and
// out-of-range and out-of-bounds values. Where the table names a value or an
// error, the compiled result must also be that.
func TestCompiledMatchesReference(t *testing.T) {
	p := compile(t, evalTableSrc, 1)
	s, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Res.Prog
	for i := range s.arrays[prog.LookupVar("u").Slot] {
		s.arrays[prog.LookupVar("u").Slot][i] = float64(10 * (i + 1))
	}
	const two53 = float64(1 << 53)
	type vars map[string]float64
	cases := []struct {
		expr string
		vars vars
		// want is the expected integer-context result: a decimal value or
		// an error substring ("" = only agreement is checked).
		want string
	}{
		{"9007199254740992 - 9007199254740991", nil, "1"},
		{"-9007199254740992 + 9007199254740993", nil, "0"},
		{"9007199254740993 - 9007199254740992", nil, "0"},
		{"9007199254740993", nil, "9007199254740992"},
		{"-9007199254740993", nil, "-9007199254740992"},
		{"k - 1", vars{"k": two53}, "9007199254740991"},
		{"k + 1 - k", vars{"k": two53}, "0"},
		{"-k - 1 + k", vars{"k": two53}, "0"},
		{"k + 1", vars{"k": two53}, "9007199254740992"},
		{"k + 2", vars{"k": two53}, "out of range"},
		{"k", vars{"k": two53 + 2}, "out of range"},
		{"-k", vars{"k": two53 + 2}, "out of range"},
		{"i + 1", vars{"i": two53}, "9007199254740992"},
		{"i - 1", vars{"i": -two53}, "-9007199254740992"},
		{"k * k", vars{"k": 1 << 40}, "out of range"},
		{"k * m", vars{"k": 3037000500, "m": 3037000500}, "out of range"},
		{"k * m", vars{"k": -(1 << 26), "m": 1 << 27}, "-9007199254740992"},
		{"k * m - 1", vars{"k": 1 << 26, "m": 1 << 27}, "9007199254740991"},
		{"r", vars{"r": 2.5}, "3"},
		{"r", vars{"r": -2.5}, "-3"},
		{"r + 1", vars{"r": math.Copysign(0, -1)}, "1"},
		{"-r", vars{"r": math.Copysign(0, -1)}, "0"},
		{"z * 0", vars{"z": -1}, "0"},
		{"r", vars{"r": math.NaN()}, "out of range"},
		{"mod(k, 3)", vars{"k": -7}, "-1"},
		{"mod(k, m)", vars{"k": 7, "m": 0}, "out of range"},
		{"mod(k, m)", vars{"k": two53, "m": 5}, "2"},
		{"max(k, m, 2)", vars{"k": -7, "m": 1}, "2"},
		{"min(k, -m)", vars{"k": two53, "m": two53}, "-9007199254740992"},
		{"abs(k)", vars{"k": -two53}, "9007199254740992"},
		{"k / 2", vars{"k": 7}, "3"},
		{"k / 2", vars{"k": -7}, "-3"},
		{"k / m", vars{"k": 7, "m": 0}, "line 7: integer division by zero"},
		{"(k + 1) / 2", vars{"k": two53}, "4503599627370496"},
		{"7.0 / 2", nil, "4"},
		{"r / 2", vars{"r": 5}, "3"},
		{"u(k)", vars{"k": 3}, "30"},
		{"u(k)", vars{"k": 0}, "line 7: u subscript 1 out of bounds: 0 (extent 8)"},
		{"u(k / 2)", vars{"k": 7}, "30"},
		{"u(r)", vars{"r": 2.5}, "30"},
		{"u(u(1) / 10)", nil, "10"},
		{"k < m", vars{"k": 1, "m": 2}, "1"},
		{"sqrt(r)", vars{"r": 16}, "4"},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			for _, name := range []string{"k", "m", "r", "z"} {
				s.scalars[prog.LookupVar(name).Slot] = tc.vars[name]
			}
			s.indices[prog.LookupVar("i").Slot] = int64(tc.vars["i"])
			e, err := parser.ParseExpr(tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			c := &compiler{s: s, elems: map[*ast.Ref]*elemRef{}}
			fv, ferr := c.float(e, 7)(s)
			rv, rerr := refEval(s, e, 7)
			if !sameResult(fv, ferr, rv, rerr) {
				t.Errorf("value: compiled %s, reference %s", showResult(fv, ferr), showResult(rv, rerr))
			}
			iv, ierr := c.int(e, 7)(s)
			riv, rierr := refEvalInt(s, e, 7)
			if !sameResult(float64(iv), ierr, float64(riv), rierr) || iv != riv {
				t.Errorf("integer: compiled %d/%v, reference %d/%v", iv, ierr, riv, rierr)
			}
			if tc.want == "" {
				return
			}
			got := fmt.Sprint(iv)
			if ierr != nil {
				got = ierr.Error()
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("integer: got %s, want %s", got, tc.want)
			}
		})
	}

	// Loop bounds go through the same integer conversion.
	l := prog.Loops[0]
	s.scalars[prog.LookupVar("k").Slot] = two53 + 2
	_, _, _, berr := s.bounds(l)
	_, rerr := refEvalInt(s, l.Hi, l.Line)
	if !sameResult(0, berr, 0, rerr) || berr == nil {
		t.Errorf("out-of-range bound: compiled %v, reference %v", berr, rerr)
	}
}

// refChecker is a walk backend that, at every statement instance and loop
// entry, compares everything the compiled evaluator computes there with the
// reference interpreter: the right-hand side, the condition, the privatized
// reduction contribution, every array subscript and the loop bounds.
type refChecker struct {
	t      *testing.T
	name   string
	s      *State
	checks int
}

func (b *refChecker) compare(what string, f fexpr, e ast.Expr, line int) {
	b.checks++
	v, err := f(b.s)
	rv, rerr := refEval(b.s, e, line)
	if !sameResult(v, err, rv, rerr) {
		b.t.Errorf("%s: %s: compiled %s, reference %s", b.name, what, showResult(v, err), showResult(rv, rerr))
	}
}

func (b *refChecker) compareInt(what string, f ixpr, e ast.Expr, line int) {
	b.checks++
	v, err := f(b.s)
	rv, rerr := refEvalInt(b.s, e, line)
	if !sameResult(float64(v), err, float64(rv), rerr) || v != rv {
		b.t.Errorf("%s: %s: compiled %d/%v, reference %d/%v", b.name, what, v, err, rv, rerr)
	}
}

func (b *refChecker) LoopEntry(l *ir.Loop, _ *spmd.LoopPlan) error {
	b.compareInt("lower bound", b.s.code.lo[l.ID], l.Lo, l.Line)
	b.compareInt("upper bound", b.s.code.hi[l.ID], l.Hi, l.Line)
	if l.Step != nil {
		b.compareInt("step", b.s.code.step[l.ID], l.Step, l.Line)
	}
	return nil
}

func (b *refChecker) LoopExit(*ir.Loop, *spmd.LoopPlan) error { return nil }
func (b *refChecker) Redistribute(*ir.Stmt) error             { return nil }
func (b *refChecker) Tick() error                             { return nil }

func (b *refChecker) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	s := b.s
	what := fmt.Sprintf("line %d", st.Line)
	switch st.Kind {
	case ir.SAssign:
		b.compare(what+" rhs", s.code.rhs[st.ID], st.Rhs, st.Line)
	case ir.SIf, ir.SIfGoto:
		b.compare(what+" condition", s.code.cond[st.ID], st.Cond, st.Line)
	}
	if sp != nil && s.PrivatizedActive(sp.Combine) {
		b.compare(what+" contribution", s.code.data[st.ID], sp.Combine.Red.Data, st.Line)
	}
	for _, r := range st.Refs {
		if !r.Var.IsArray() {
			continue
		}
		for k, f := range s.code.refs[r.ID].subs {
			b.compareInt(fmt.Sprintf("%s %s subscript %d", what, r.Var.Name, k+1), f, r.Ast.Subs[k], st.Line)
		}
	}
	return nil
}

// TestCompiledMatchesReferenceOnCorpus walks every corpus program at P ∈
// {1,4,8} under automatic reduction privatization and checks the compiled
// evaluator against the reference interpreter at every instance. A walk may
// stop on a runtime error (two paper figures read out of bounds); the
// reference must have agreed on that error at the statement that raised it.
func TestCompiledMatchesReferenceOnCorpus(t *testing.T) {
	srcs := map[string]string{
		"TOMCATV":   programs.TOMCATV(17, 2),
		"DGEFA":     programs.DGEFA(16),
		"APPSP-1D":  programs.APPSP(6, 6, 6, 1, false),
		"APPSP-2D":  programs.APPSP(6, 6, 6, 1, true),
		"Smooth":    programs.Smooth(32, 2),
		"Histogram": programs.Histogram(32, 8, 2),
		"DotSweep":  programs.DotSweep(8, 3),
	}
	for name, src := range programs.Figures {
		srcs[name] = src
	}
	for name, src := range srcs {
		for _, procs := range []int{1, 4, 8} {
			p := compile(t, src, procs)
			s, err := NewState(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ConfigureReduce(core.ReduceAuto, Budget{}); err != nil {
				t.Fatal(err)
			}
			b := &refChecker{t: t, name: fmt.Sprintf("%s P=%d", name, procs), s: s}
			werr := Walk(s, b)
			if b.checks == 0 {
				t.Errorf("%s: nothing compared (walk: %v)", b.name, werr)
			}
		}
	}
}

// allocProbe measures, at the first instance of every statement, the
// ownership calls the per-instance path makes: ExecSet, InstanceOp for each
// per-instance requirement, OwnerSet for each array reference, PatternSet of
// a pattern-driven statement and UnionSet of the enclosing loop.
type allocProbe struct {
	t      *testing.T
	name   string
	s      *State
	seen   map[int]bool
	probed int
}

func (b *allocProbe) LoopEntry(*ir.Loop, *spmd.LoopPlan) error { return nil }
func (b *allocProbe) LoopExit(*ir.Loop, *spmd.LoopPlan) error  { return nil }
func (b *allocProbe) Redistribute(*ir.Stmt) error              { return nil }
func (b *allocProbe) Tick() error                              { return nil }

func (b *allocProbe) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	if sp == nil || b.seen[st.ID] {
		return nil
	}
	b.seen[st.ID] = true
	s := b.s
	var failed error
	allocs := testing.AllocsPerRun(20, func() {
		set, err := s.ExecSet(sp)
		if err != nil {
			failed = err
			return
		}
		for _, req := range sp.PerInstance {
			if _, err := s.InstanceOp(req, set, 8); err != nil {
				failed = err
			}
		}
		for _, r := range st.Refs {
			if r.Var.IsArray() {
				if _, err := s.OwnerSet(r); err != nil {
					failed = err
				}
			}
		}
		if sp.Kind == spmd.ExecPattern {
			s.PatternSet(sp.Scalar.Pattern, nil)
		}
		if st.Loop != nil {
			s.epoch++ // defeat the per-iteration memo: measure the union itself
			s.UnionSet(st.Loop)
		}
	})
	if failed != nil {
		b.t.Fatalf("%s line %d: %v", b.name, st.Line, failed)
	}
	if allocs != 0 {
		b.t.Errorf("%s line %d: ownership allocates %v objects per instance, want 0", b.name, st.Line, allocs)
	}
	b.probed++
	return nil
}

// TestOwnershipAllocationFree guards the per-instance ownership path's
// zero-allocation contract on TOMCATV (privatized arrays, owner-computes)
// and APPSP with the 2-D distribution and partial privatization.
func TestOwnershipAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, tc := range []struct{ name, src string }{
		{"TOMCATV", programs.TOMCATV(17, 1)},
		{"APPSP-2D-partial", programs.APPSP(6, 6, 6, 1, true)},
	} {
		p := compile(t, tc.src, 4)
		s, err := NewState(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ConfigureReduce(core.ReduceAuto, Budget{}); err != nil {
			t.Fatal(err)
		}
		b := &allocProbe{t: t, name: tc.name, s: s, seen: map[int]bool{}}
		if err := Walk(s, b); err != nil {
			t.Fatal(err)
		}
		if b.probed < 5 {
			t.Errorf("%s: only %d statements probed", tc.name, b.probed)
		}
	}
}
