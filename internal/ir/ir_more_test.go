package ir

import (
	"testing"

	"phpf/internal/ast"
)

func TestVarSize(t *testing.T) {
	p := build(t, `
program t
parameter n = 4
real a(n,n,2)
real x
a(1,1,1) = x
end
`)
	if s := p.LookupVar("a").Size(); s != 32 {
		t.Errorf("size = %d, want 32", s)
	}
	if s := p.LookupVar("x").Size(); s != 1 {
		t.Errorf("scalar size = %d, want 1", s)
	}
}

func TestConstExprDims(t *testing.T) {
	p := build(t, `
program t
parameter n = 6
real a(n*2, n-1, (n+2)/2, -(-n))
a(1,1,1,1) = 0.0
end
`)
	a := p.LookupVar("a")
	want := []int64{12, 5, 4, 6}
	for i, w := range want {
		if a.Dims[i] != w {
			t.Errorf("dim %d = %d, want %d", i, a.Dims[i], w)
		}
	}
}

func TestAffineIsConst(t *testing.T) {
	p := build(t, `
program t
parameter n = 6
real a(n)
integer i
do i = 1, n
  a(3) = a(i)
end do
end
`)
	var s *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign {
			s = st
		}
	}
	if v, ok := s.Lhs.Subs[0].IsConst(); !ok || v != 3 {
		t.Errorf("a(3) subscript const = %v %v", v, ok)
	}
	if _, ok := s.Uses[0].Subs[0].IsConst(); ok {
		t.Error("a(i) subscript should not be constant")
	}
}

func TestAffineStringForms(t *testing.T) {
	p := build(t, `
program t
parameter n = 10
real a(n,n)
real s
integer i, j
do i = 1, n
  do j = 1, n
    s = a(1,1)
    a(2*i, j) = a(i+j, s)
  end do
end do
end
`)
	var asn *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs.Var.Name == "a" {
			asn = st
		}
	}
	if got := asn.Lhs.Subs[0].String(); got != "2*i" {
		t.Errorf("sub = %q", got)
	}
	// Non-affine subscript renders with a nonaffine marker.
	var rhs *Ref
	for _, u := range asn.Uses {
		if u.Var.IsArray() {
			rhs = u
		}
	}
	if got := rhs.Subs[1].String(); got != "nonaffine(s)" {
		t.Errorf("nonaffine sub = %q", got)
	}
	// Constant-only form.
	zero := AnalyzeAffine(&ast.IntConst{Value: 0}, nil, nil)
	if zero.String() != "0" {
		t.Errorf("zero = %q", zero.String())
	}
	neg := AnalyzeAffine(&ast.UnaryMinus{X: &ast.Ref{Name: "i"}}, asn.Loop, nil)
	if neg.String() != "-i" {
		t.Errorf("neg = %q", neg.String())
	}
}

func TestLoopAtLevel(t *testing.T) {
	p := build(t, `
program t
parameter n = 4
real a(n)
integer i, j
do i = 1, n
  do j = 1, n
    a(j) = 1.0
  end do
end do
end
`)
	var s *Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign {
			s = st
		}
	}
	if l := LoopAtLevel(s, 1); l == nil || l.Index.Name != "i" {
		t.Errorf("level 1 = %v", l)
	}
	if l := LoopAtLevel(s, 2); l == nil || l.Index.Name != "j" {
		t.Errorf("level 2 = %v", l)
	}
	if l := LoopAtLevel(s, 3); l != nil {
		t.Errorf("level 3 = %v, want nil", l)
	}
}

func TestStmtKindStrings(t *testing.T) {
	kinds := map[StmtKind]string{
		SAssign: "assign", SIf: "if", SIfGoto: "ifgoto", SGoto: "goto",
		SContinue: "continue", SRedistribute: "redistribute",
		SLoopBounds: "loopbounds",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if StmtKind(99).String() != "?" {
		t.Error("unknown kind")
	}
}

func TestRefString(t *testing.T) {
	p := build(t, figure1)
	for _, r := range p.Refs {
		if r.Var.Name == "a" && r.IsDef {
			if r.String() != "a((i + 1))" {
				t.Errorf("ref string = %q", r.String())
			}
		}
	}
}

func TestBuildErrorMessage(t *testing.T) {
	err := buildErr(t, "program t\nq = 1\nend\n")
	if err.Error() != "2:1: error: ir: undeclared variable q [E003]" {
		t.Errorf("error = %q", err.Error())
	}
}

// TestNestedIfDeepDependence verifies EnclosingIfs ordering (outermost
// first) through two levels.
func TestNestedIfDeepDependence(t *testing.T) {
	p := build(t, `
program t
parameter n = 8
real a(n), b(n)
integer i
do i = 1, n
  if (b(i) > 0.0) then
    if (b(i) > 1.0) then
      a(i) = 2.0
    end if
  end if
end do
end
`)
	var asn *Stmt
	var ifs []*Stmt
	for _, st := range p.Stmts {
		if st.Kind == SAssign && st.Lhs.Var.Name == "a" {
			asn = st
		}
		if st.Kind == SIf {
			ifs = append(ifs, st)
		}
	}
	if len(asn.EnclosingIfs) != 2 {
		t.Fatalf("enclosing ifs = %d, want 2", len(asn.EnclosingIfs))
	}
	if asn.EnclosingIfs[0] != ifs[0] || asn.EnclosingIfs[1] != ifs[1] {
		t.Error("enclosing ifs not outermost-first")
	}
	// The inner if is control dependent on the outer.
	if len(ifs[1].EnclosingIfs) != 1 || ifs[1].EnclosingIfs[0] != ifs[0] {
		t.Error("inner if missing control dependence")
	}
}

// TestRankLimit: arrays, PROCESSORS and DISTRIBUTE directives of rank above
// ast.MaxRank (Fortran's seven) are positioned E003 errors; rank 7 builds.
func TestRankLimit(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"array", "program t\nreal a(2,2,2,2,2,2,2,2)\nend\n",
			"2:6: error: ir: array a has rank 8 (at most 7) [E003]"},
		{"processors", "program t\nreal a(2,2)\n!hpf$ processors p(2,2,2,2,2,2,2,2)\nend\n",
			"3:1: error: ir: processors p has rank 8 (at most 7) [E003]"},
		{"distribute", "program t\nreal a(2,2)\n!hpf$ distribute (block,block,block,block,block,block,block,block) :: a\nend\n",
			"3:1: error: ir: distribute has 8 formats (at most 7) [E003]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := buildErr(t, tc.src).Error(); got != tc.want {
				t.Errorf("error = %q, want %q", got, tc.want)
			}
		})
	}
	build(t, "program t\nreal a(2,2,2,2,2,2,2)\n!hpf$ distribute (block,block,block,block,block,block,block) :: a\na(1,1,1,1,1,1,1) = 1.0\nend\n")
}
