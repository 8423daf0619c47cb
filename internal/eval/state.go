// Package eval is the shared interpretation core of the two execution
// backends: the sequential cost-model simulator (internal/sim) and the
// concurrent SPMD executor (internal/exec). Both walk the same spmd.Program
// through the same value semantics, execution-set evaluation, and
// communication decisions defined here, so that their numeric results are
// bit-for-bit identical by construction and any divergence is a real bug in
// one of the backends — the property the differential oracle (exec.Differ)
// checks.
//
// The core is deliberately free of cost accounting: backends observe the
// walk through the Backend interface (see walk.go) and charge their own
// machine models or perform real message passing at the decision points.
package eval

import (
	"fmt"
	"math"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/diag"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// maxExactInt bounds every integer value the interpreter manipulates (loop
// bounds, subscripts, trip counts) to the contiguously representable float64
// range, 2^53. Values beyond it would silently lose integer precision in the
// float-backed evaluator and can drive int64 arithmetic to wrap on
// adversarial (fuzz-reachable) loop bounds; they are rejected with a
// diagnostic instead.
const maxExactInt = int64(1) << 53

// maxArrayElems caps a single array's element count. Larger declarations are
// almost certainly adversarial inputs (the benchmarks top out around 10^6
// elements) and would otherwise OOM or overflow offset arithmetic.
const maxArrayElems = int64(1) << 31

// NumericError reports an integer value or computation that left the exactly
// representable range — the structured diagnostic the overflow guards
// return instead of wrapping.
type NumericError struct {
	Line int     // source line when known (0 otherwise)
	What string  // which quantity overflowed
	Val  float64 // the offending value when meaningful
}

func (e *NumericError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %s out of range (%v exceeds 2^53)", e.Line, e.What, e.Val)
	}
	return fmt.Sprintf("%s out of range (%v exceeds 2^53)", e.What, e.Val)
}

// State is one interpretation context: the full memory image plus the
// dynamic (possibly redistributed) array mappings. The sequential simulator
// holds one State; the concurrent executor holds one per worker — replicated
// execution keeps every image identical, which is what makes the SPMD
// programs under the paper's mappings semantically interchangeable.
//
// The memory image is slot-indexed: every variable carries a dense slot
// number (ir.AssignSlots), and values live in flat slices indexed by it, so
// the innermost interpretation path costs an array index instead of a
// pointer-keyed map probe. The former map fields survive as view methods
// (Scalars, Arrays, Indices, Dyn) that materialize the equivalent maps.
type State struct {
	Prog *spmd.Program

	// slots is Prog's variable numbering (slot -> variable).
	slots []*ir.Var

	scalars   []float64 // by Var.Slot; scalar values
	scalarSet []bool    // by Var.Slot; true once Store wrote the scalar
	indices   []int64   // by Var.Slot; current loop-index values
	arrays    [][]float64
	// dyn holds the current (possibly redistributed) mapping per array.
	dyn []*dist.ArrayMap

	// unionCache memoizes the per-iteration union execution set by
	// Loop.ID; unionEpoch records the epoch an entry was computed at
	// (-1 = never). epoch advances on every loop iteration and on every
	// dynamic remapping (REDISTRIBUTE), which invalidates the cache.
	unionCache []dist.ProcSet
	unionEpoch []int64
	epoch      int64

	// unionPart caches, per loop, the statically known contributors to the
	// loop's union execution set (built on first use).
	unionPart [][]unionContrib

	// code is the compiled evaluator of Prog (see compile.go).
	code *code

	// Privatized-reduction state (see reduce.go). partials[acc] is the
	// combine's partial table — nprocs rows of partialElems[acc] elements,
	// row p holding processor p's private partial — or nil when the combine
	// runs collectively. Indexed by spmd.Combine.AccIndex.
	reduceMode   core.ReduceMode
	partials     [][]float64
	partialElems []int64

	// walk points at the tracked walker currently interpreting this state
	// (nil outside WalkResume); Cursor reads the resume path through it.
	// Deliberately excluded from snapshots.
	walk *walker
}

// unionContrib is one owner-driven statement's static contribution to a
// union execution set: its owner pattern and the inner loops that widen it.
type unionContrib struct {
	pat   dist.OwnerPattern
	widen []*ir.Loop
}

// Budget bounds the resources one State may allocate. The zero value is
// unlimited — the CLIs and tests run unconstrained; serving paths set
// MaxCells so one hostile request cannot exhaust process memory.
type Budget struct {
	// MaxCells caps the total float64 cells allocated across all arrays of
	// one memory image (0 = unlimited). Each worker of the concurrent
	// backend holds a full replicated image, so a request's worst-case
	// footprint is MaxCells × 8 bytes × workers.
	MaxCells int64
}

// NewState allocates a fresh unbudgeted memory image for the program (see
// NewStateBudget). Array shapes are validated against maxArrayElems so
// adversarial declarations fail with a diagnostic instead of exhausting
// memory or wrapping offset arithmetic.
func NewState(p *spmd.Program) (*State, error) {
	return NewStateBudget(p, Budget{})
}

// NewStateBudget allocates a fresh memory image under a resource budget. A
// breach returns a coded E006 diagnostic (diag.CodeBudget) before anything
// large is allocated, so a server can refuse the request as a client error
// instead of OOMing the process.
func NewStateBudget(p *spmd.Program, budget Budget) (*State, error) {
	if p == nil || p.Res == nil || p.Res.Prog == nil {
		return nil, fmt.Errorf("eval: nil program")
	}
	prog := p.Res.Prog
	slots := ir.AssignSlots(prog).Vars
	n := len(slots)
	s := &State{
		Prog:       p,
		slots:      slots,
		scalars:    make([]float64, n),
		scalarSet:  make([]bool, n),
		indices:    make([]int64, n),
		arrays:     make([][]float64, n),
		dyn:        make([]*dist.ArrayMap, n),
		unionCache: make([]dist.ProcSet, len(prog.Loops)),
		unionEpoch: make([]int64, len(prog.Loops)),
		unionPart:  make([][]unionContrib, len(prog.Loops)),
	}
	for i := range s.unionEpoch {
		s.unionEpoch[i] = -1
	}
	// Validate every shape and the aggregate footprint before allocating
	// anything large: a budget breach must cost O(1) memory, not trigger
	// the very allocation it exists to prevent.
	sizes := make([]int64, n)
	total := int64(0)
	for _, v := range prog.VarList {
		if !v.IsArray() {
			continue
		}
		size := int64(1)
		for _, d := range v.Dims {
			var ok bool
			size, ok = mulChecked(size, d)
			if !ok || size > maxArrayElems {
				return nil, fmt.Errorf("eval: array %s too large (> %d elements)", v.Name, maxArrayElems)
			}
		}
		if size < 0 {
			return nil, fmt.Errorf("eval: array %s has negative size", v.Name)
		}
		sizes[v.Slot] = size
		var ok bool
		if total, ok = addChecked(total, size); !ok {
			return nil, fmt.Errorf("eval: memory image overflows int64 cells")
		}
		if budget.MaxCells > 0 && total > budget.MaxCells {
			return nil, diag.Errorf("eval", diag.CodeBudget, diag.Pos{},
				"memory image needs more than %d cells (array %s alone brings the total past the MaxCells budget)",
				budget.MaxCells, v.Name)
		}
	}
	for _, v := range prog.VarList {
		if !v.IsArray() {
			continue
		}
		s.arrays[v.Slot] = make([]float64, sizes[v.Slot])
		s.dyn[v.Slot] = p.Res.Mapping.Arrays[v]
	}
	s.code = newCode(s)
	return s, nil
}

// ---------------------------------------------------------------------------
// Per-variable accessors and map-compatibility views

// Scalar returns the current value of a scalar variable (0 if unassigned).
func (s *State) Scalar(v *ir.Var) float64 { return s.scalars[v.Slot] }

// Index returns the current value of a loop-index variable.
func (s *State) Index(v *ir.Var) int64 { return s.indices[v.Slot] }

// Array returns the backing store of an array variable (nil for scalars).
func (s *State) Array(v *ir.Var) []float64 { return s.arrays[v.Slot] }

// DynMap returns the variable's current (possibly redistributed) mapping.
func (s *State) DynMap(v *ir.Var) *dist.ArrayMap { return s.dyn[v.Slot] }

// Scalars materializes the map view of all assigned scalars — the pre-slot
// map field kept as a compatibility view for result export and tests.
func (s *State) Scalars() map[*ir.Var]float64 {
	m := map[*ir.Var]float64{}
	for i, set := range s.scalarSet {
		if set {
			m[s.slots[i]] = s.scalars[i]
		}
	}
	return m
}

// Arrays materializes the map view of all array stores (the slices alias
// the live image, as the former map field did).
func (s *State) Arrays() map[*ir.Var][]float64 {
	m := map[*ir.Var][]float64{}
	for i, a := range s.arrays {
		if a != nil {
			m[s.slots[i]] = a
		}
	}
	return m
}

// Indices materializes the map view of the current loop-index values.
func (s *State) Indices() map[*ir.Var]int64 {
	m := map[*ir.Var]int64{}
	for _, v := range s.slots {
		if v.IsLoopIndex {
			m[v] = s.indices[v.Slot]
		}
	}
	return m
}

// Dyn materializes the map view of the current array mappings.
func (s *State) Dyn() map[*ir.Var]*dist.ArrayMap {
	m := map[*ir.Var]*dist.ArrayMap{}
	for i, am := range s.dyn {
		if am != nil {
			m[s.slots[i]] = am
		}
	}
	return m
}

// Grid returns the processor grid the program is mapped onto.
func (s *State) Grid() *dist.Grid { return s.Prog.Res.Mapping.Grid }

// mulChecked multiplies two non-negative int64s, reporting overflow.
func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if c/b != a || c < 0 {
		return 0, false
	}
	return c, true
}

// addChecked adds two int64s, reporting overflow.
func addChecked(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// ---------------------------------------------------------------------------
// Value semantics

// store assigns val through a definition reference.
func (s *State) store(ref *ir.Ref, val float64) error {
	v := ref.Var
	if !v.IsArray() {
		if v.Type == ast.Integer {
			val = math.Round(val)
		}
		s.scalars[v.Slot] = val
		s.scalarSet[v.Slot] = true
		return nil
	}
	off, err := s.code.refs[ref.ID].offset(s)
	if err != nil {
		return err
	}
	s.arrays[v.Slot][off] = val
	return nil
}

// RefValue reads a reference's current value (a loop index, a scalar or an
// array element) through the compiled evaluator.
func (s *State) RefValue(ref *ir.Ref) (float64, error) {
	v := ref.Var
	switch {
	case v.IsLoopIndex:
		return float64(s.indices[v.Slot]), nil
	case !v.IsArray():
		return s.scalars[v.Slot], nil
	}
	return s.code.refs[ref.ID].load(s)
}

// EvalAffine evaluates an affine form (falling back to the compiled
// expression for non-affine subscripts).
func (s *State) EvalAffine(a ir.Affine) (int64, error) {
	if a.OK {
		x := a.Const
		for _, t := range a.Terms {
			x += t.Coef * s.indices[t.Loop.Index.Slot]
		}
		return x, nil
	}
	if a.Expr == nil {
		return 0, fmt.Errorf("undefined pattern position")
	}
	f := s.code.pos[a.Expr]
	if f == nil {
		f = (&compiler{s: s, elems: map[*ast.Ref]*elemRef{}}).int(a.Expr, 0)
		s.code.pos[a.Expr] = f
	}
	return f(s)
}

// bounds evaluates a loop's bounds at the current indices (step 1 when the
// loop has none). Values are range-checked, so trip arithmetic cannot wrap.
func (s *State) bounds(l *ir.Loop) (lo, hi, step int64, err error) {
	if lo, err = s.code.lo[l.ID](s); err != nil {
		return
	}
	if hi, err = s.code.hi[l.ID](s); err != nil {
		return
	}
	step = 1
	if f := s.code.step[l.ID]; f != nil {
		step, err = f(s)
	}
	return
}

// TripCount evaluates a loop's trip count at the current indices.
func (s *State) TripCount(l *ir.Loop) (int64, error) {
	lo, hi, step, err := s.bounds(l)
	if err != nil {
		return 0, err
	}
	if step == 0 {
		return 0, fmt.Errorf("zero step in %s-loop at line %d", l.Index.Name, l.Line)
	}
	n := (hi-lo)/step + 1
	if n < 0 {
		n = 0
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Execution sets

// ExecSet evaluates a statement's execution set at the current indices.
func (s *State) ExecSet(sp *spmd.StmtPlan) (dist.ProcSet, error) {
	g := s.Grid()
	switch sp.Kind {
	case spmd.ExecAll:
		return dist.AllProcs(g), nil
	case spmd.ExecOwner:
		return s.OwnerSet(sp.OwnerRef)
	case spmd.ExecPattern:
		return s.PatternSet(sp.Scalar.Pattern, nil), nil
	case spmd.ExecUnion:
		return s.UnionSet(sp.Stmt.Loop), nil
	}
	return dist.AllProcs(g), nil
}

// OwnerSet evaluates the owners of an array reference under the dynamic
// distribution (plus privatization overrides).
func (s *State) OwnerSet(ref *ir.Ref) (dist.ProcSet, error) {
	g := s.Grid()
	e := s.code.refs[ref.ID]
	if e == nil {
		return dist.AllProcs(g), nil // a scalar reference: no owner
	}
	// Subscripts evaluate into a stack buffer (ranks are at most MaxRank),
	// which the privatization path may recurse with.
	var buf [dist.MaxRank]int64
	idx := buf[:len(e.subs)]
	for k, f := range e.subs {
		x, err := f(s)
		if err != nil {
			return dist.ProcSet{}, err
		}
		idx[k] = x
	}
	if e.priv != nil {
		return s.privOwnerSet(e.priv, idx)
	}
	am := s.dyn[ref.Var.Slot]
	if am == nil {
		return dist.AllProcs(g), nil
	}
	return am.Owner(g, idx), nil
}

// privOwnerSet computes the owner of a privatized array element: privatized
// grid dims follow the target reference's owner now; partitioned dims from
// the privatization axes.
func (s *State) privOwnerSet(ap *core.ArrayPrivatization, idx []int64) (dist.ProcSet, error) {
	g := s.Grid()
	set := dist.AllProcs(g)
	tgt, err := s.OwnerSet(ap.Target)
	if err != nil {
		return dist.ProcSet{}, err
	}
	for d := 0; d < g.Rank(); d++ {
		if ap.PrivGrid[d] {
			if c, ok := tgt.Fixed(d); ok {
				set = set.WithDim(d, c)
			}
		}
	}
	for dim, ax := range ap.Axes {
		if ax.Distributed {
			set = set.WithDim(ax.GridDim, ax.OwnerDim(idx[dim], g.Shape[ax.GridDim]))
		}
	}
	return set, nil
}

// PatternSet evaluates an owner pattern at the current indices. widen, when
// non-nil, lists loops whose indices range over a whole aggregated transfer:
// dimensions varying in them span all coordinates.
func (s *State) PatternSet(pat dist.OwnerPattern, widen []*ir.Loop) dist.ProcSet {
	g := s.Grid()
	set := dist.AllProcs(g)
	for d := range pat.Dims {
		dp := pat.Dims[d]
		if dp.Repl {
			continue
		}
		wide := false
		for _, l := range widen {
			if dp.Sub.VariesIn(l) {
				wide = true
				break
			}
		}
		if wide {
			continue
		}
		pos, err := s.EvalAffine(dp.Sub)
		if err != nil {
			continue // undefined position: leave the dimension wide
		}
		ax := dist.AxisMap{Distributed: true, GridDim: d, Kind: dp.Kind,
			Offset: dp.Offset, Extent: dp.Extent, Block: dp.Block}
		set = set.WithDim(d, ax.OwnerDim(pos, g.Shape[d]))
	}
	return set
}

// UnionSet computes (and memoizes per iteration) the union of the execution
// sets of the loop body's owner-driven statements.
func (s *State) UnionSet(l *ir.Loop) dist.ProcSet {
	g := s.Grid()
	if l == nil {
		return dist.AllProcs(g)
	}
	if s.unionEpoch[l.ID] == s.epoch {
		return s.unionCache[l.ID]
	}
	// The contributing statements and their owner patterns are static per
	// program; only the pattern evaluation depends on the current indices.
	// Build the contributor list once per loop.
	part := s.unionPart[l.ID]
	if part == nil {
		part = s.unionContribs(l)
		s.unionPart[l.ID] = part
	}
	have := false
	var u dist.ProcSet
	for i := range part {
		set := s.PatternSet(part[i].pat, part[i].widen)
		if !have {
			u, have = set, true
		} else {
			u = u.Union(set)
		}
	}
	if !have {
		u = dist.AllProcs(g)
	}
	s.unionCache[l.ID] = u
	s.unionEpoch[l.ID] = s.epoch
	return u
}

// unionContribs collects the owner-driven statements under l that shape its
// union execution set. The result is non-nil even when empty, so the lazy
// cache in UnionSet records "computed, no contributors".
func (s *State) unionContribs(l *ir.Loop) []unionContrib {
	var innerList []*ir.Loop
	for _, ll := range s.Prog.Res.Prog.Loops {
		if ll != l && ir.Encloses(l, ll) {
			innerList = append(innerList, ll)
		}
	}
	part := []unionContrib{}
	for _, st := range s.Prog.Res.Prog.Stmts {
		if st.Kind != ir.SAssign || !ir.Encloses(l, st.Loop) {
			continue
		}
		sp := s.Prog.PlanOf(st)
		switch sp.Kind {
		case spmd.ExecOwner:
			part = append(part, unionContrib{pat: s.Prog.Res.RefPattern(sp.OwnerRef), widen: innerList})
		case spmd.ExecPattern:
			part = append(part, unionContrib{pat: sp.Scalar.Pattern, widen: innerList})
		}
	}
	return part
}
