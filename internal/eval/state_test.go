package eval

import (
	"testing"

	"phpf/internal/core"
	"phpf/internal/ir"
	"phpf/internal/parser"
	"phpf/internal/spmd"
)

func compile(t *testing.T, src string, nprocs int) *spmd.Program {
	t.Helper()
	ap, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cres, err := core.BuildAndAnalyze(ap, nprocs, core.DefaultOptions())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spmd.Generate(cres)
}

// redistSrc has an owner-computed loop nest followed by an executable
// redistribution, so a State sees both a memoized union set and a dynamic
// remap.
const redistSrc = `
program t
parameter n = 16
real a(n,n)
integer i, j
!hpf$ distribute (block,*) :: a
do i = 1, n
  do j = 1, n
    a(i,j) = 1.0
  end do
end do
!hpf$ redistribute a(*,block)
end
`

// TestRedistributeInvalidatesUnionCache is the regression test for the
// stale-union-set bug: ApplyRedistribute swaps the dynamic mapping but, before
// the fix, left the epoch untouched, so a union execution set memoized for the
// current epoch kept being served after the remap. The test witnesses the
// staleness through the loop index: it memoizes the set at one index value,
// changes the index without advancing the epoch (only the walker does that),
// and applies the redistribution — which must invalidate the memo, so the next
// UnionSet call recomputes instead of replaying the stale entry.
func TestRedistributeInvalidatesUnionCache(t *testing.T) {
	p := compile(t, redistSrc, 4)
	s, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	var outer *ir.Loop
	for _, l := range p.Res.Prog.Loops {
		if l.Index.Name == "i" {
			outer = l
		}
	}
	if outer == nil {
		t.Fatal("loop over i not found")
	}
	var redist *ir.Stmt
	for _, st := range p.Res.Prog.Stmts {
		if st.Kind == ir.SRedistribute {
			redist = st
		}
	}
	if redist == nil {
		t.Fatal("redistribute statement not found")
	}

	// Memoize the union set for row 13 (block size 4 on 4 procs -> proc 3).
	s.indices[outer.Index.Slot] = 13
	before := s.UnionSet(outer)
	if got, want := before.AppendProcs(nil), []int{3}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("union set at i=13 = %v, want %v", got, want)
	}

	// Move the index without touching the epoch, then redistribute. The
	// remap must bump the epoch; without the bump the next UnionSet call
	// returns the memoized i=13 set.
	s.indices[outer.Index.Slot] = 1
	if err := s.ApplyRedistribute(redist); err != nil {
		t.Fatal(err)
	}
	after := s.UnionSet(outer)
	if got := after.AppendProcs(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("union set after redistribute at i=1 = %v, want [0] (stale memo served?)", got)
	}

	// The remap itself must be visible through the dynamic-mapping view.
	a := p.Res.Prog.LookupVar("a")
	if a == nil {
		t.Fatal("array a not found")
	}
	if s.DynMap(a) == p.Res.Mapping.Arrays[a] {
		t.Error("DynMap(a) still the static mapping after ApplyRedistribute")
	}
}

// TestSlotViews pins the map-compatibility views over the slot-indexed state:
// the accessors and the materialized maps must agree, and the array view must
// alias the live image (as the former map fields did).
func TestSlotViews(t *testing.T) {
	p := compile(t, redistSrc, 4)
	s, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Res.Prog.LookupVar("a")
	iv := p.Res.Prog.LookupVar("i")
	if a == nil || iv == nil {
		t.Fatal("variables not found")
	}
	if got := len(s.Array(a)); got != 16*16 {
		t.Fatalf("len(Array(a)) = %d, want 256", got)
	}
	s.Array(a)[5] = 42
	if got := s.Arrays()[a][5]; got != 42 {
		t.Fatalf("Arrays() view does not alias the live image: got %v", got)
	}
	s.indices[iv.Slot] = 7
	if got := s.Indices()[iv]; got != 7 {
		t.Fatalf("Indices() view = %v, want 7", got)
	}
	if got := s.Index(iv); got != 7 {
		t.Fatalf("Index(i) = %v, want 7", got)
	}
	// Scalars() lists only assigned scalars.
	if got := len(s.Scalars()); got != 0 {
		t.Fatalf("Scalars() on a fresh state has %d entries, want 0", got)
	}
	if s.Dyn()[a] == nil {
		t.Fatal("Dyn() view misses the distributed array")
	}
	if s.Dyn()[a] != s.DynMap(a) {
		t.Fatal("Dyn() view disagrees with DynMap")
	}
}
