// The compiled evaluator: every expression the runtime evaluates — right-hand
// sides, IF conditions, reduction contributions, loop bounds and subscripts —
// is compiled once per State into a tree of closures, so the per-instance
// path neither re-walks the AST nor resolves variables.
//
// Values follow one semantics, the float64 one: every node computes exactly
// what the node-by-node float interpretation computes, bit for bit. Integer
// subscripts and bounds additionally get an int64 path that avoids the
// float64 round trip. It is taken only while every leaf (integer constant,
// loop index, integral scalar or element) and every intermediate of + - * /
// lies within ±2^53: there the float path is exact, so both agree. When a
// value leaves that range the same tree's float path runs instead, with its
// value or error.
//
// Expressions are typed statically: a constant, a variable or an intrinsic
// of integer operands is integer; anything involving a real is real.
// Integer ÷ integer truncates toward zero, as Fortran does and as constant
// propagation folds it, and an integer division by zero is an error naming
// the source line.
package eval

import (
	"fmt"
	"math"
	"math/bits"

	"phpf/internal/ast"
	"phpf/internal/core"
	"phpf/internal/ir"
)

// fexpr evaluates a compiled expression in float64.
type fexpr func(s *State) (float64, error)

// iexpr is the exact int64 path of an integer expression. ok is false when a
// leaf or an intermediate left ±2^53 (or a leaf was not integral); the
// caller then takes the float path of the same tree.
type iexpr func(s *State) (v int64, ok bool, err error)

// ixpr evaluates an expression to an integer: the int64 path when it is
// exact, else the float path rounded, with values beyond ±2^53 rejected.
type ixpr func(s *State) (int64, error)

// elemRef is a compiled array element reference: the subscripts and what
// the bounds check reports.
type elemRef struct {
	v    *ir.Var
	subs []ixpr
	line int // source line for out-of-bounds errors (0 when unknown)
	// priv is the array's privatization when this reference lies inside
	// the privatizing loop: its owner then follows the privatization
	// (State.privOwnerSet), not the array's mapping.
	priv *core.ArrayPrivatization
}

// code is a State's compiled program.
type code struct {
	rhs  []fexpr // by Stmt.ID: SAssign right-hand sides
	cond []fexpr // by Stmt.ID: SIf and SIfGoto conditions
	data []fexpr // by Stmt.ID: privatizable reduction contributions

	refs []*elemRef // by Ref.ID: array references (nil for scalars)

	lo, hi, step []ixpr // by Loop.ID (step nil: unit step)

	// pos holds the compiled non-affine pattern positions (Affine.Expr),
	// seeded with every reference's subscripts and extended on first use.
	pos map[ast.Expr]ixpr
}

// compiler builds a State's code.
type compiler struct {
	s *State
	// elems shares one compiled element reference between an ir.Ref and
	// the expression tree that contains its ast.Ref.
	elems map[*ast.Ref]*elemRef
}

// newCode compiles s.Prog.
func newCode(s *State) *code {
	prog := s.Prog.Res.Prog
	c := &compiler{s: s, elems: map[*ast.Ref]*elemRef{}}
	k := &code{
		rhs:  make([]fexpr, len(prog.Stmts)),
		cond: make([]fexpr, len(prog.Stmts)),
		data: make([]fexpr, len(prog.Stmts)),
		refs: make([]*elemRef, len(prog.Refs)),
		lo:   make([]ixpr, len(prog.Loops)),
		hi:   make([]ixpr, len(prog.Loops)),
		step: make([]ixpr, len(prog.Loops)),
		pos:  map[ast.Expr]ixpr{},
	}
	for _, r := range prog.Refs {
		if r.Var.IsArray() {
			e := c.elem(r.Ast, r.Var, r.Stmt.Line)
			if ap := s.Prog.Res.Arrays[r.Var]; ap != nil && ir.Encloses(ap.Loop, r.Stmt.Loop) {
				e.priv = ap
			}
			k.refs[r.ID] = e
			for i, sub := range e.subs {
				k.pos[r.Ast.Subs[i]] = sub
			}
		}
	}
	for _, st := range prog.Stmts {
		switch st.Kind {
		case ir.SAssign:
			k.rhs[st.ID] = c.float(st.Rhs, st.Line)
		case ir.SIf, ir.SIfGoto:
			k.cond[st.ID] = c.float(st.Cond, st.Line)
		}
		if sp := s.Prog.PlanOf(st); sp != nil && sp.Combine != nil && sp.Combine.Privatizable {
			k.data[st.ID] = c.float(sp.Combine.Red.Data, st.Line)
		}
	}
	for _, l := range prog.Loops {
		k.lo[l.ID] = c.int(l.Lo, l.Line)
		k.hi[l.ID] = c.int(l.Hi, l.Line)
		if l.Step != nil {
			k.step[l.ID] = c.int(l.Step, l.Line)
		}
	}
	return k
}

// lookup resolves a reference to its variable (nil when undeclared).
func (c *compiler) lookup(x *ast.Ref) *ir.Var {
	if x.Slot > 0 {
		return c.s.slots[x.Slot-1]
	}
	return c.s.Prog.Res.Prog.LookupVar(x.Name)
}

// elem compiles an array element reference, sharing the result per ast.Ref.
func (c *compiler) elem(x *ast.Ref, v *ir.Var, line int) *elemRef {
	if e := c.elems[x]; e != nil {
		return e
	}
	e := &elemRef{v: v, line: line, subs: make([]ixpr, len(x.Subs))}
	for i, sub := range x.Subs {
		e.subs[i] = c.int(sub, line)
	}
	c.elems[x] = e
	return e
}

// isInt reports whether e is integer-typed.
func (c *compiler) isInt(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.IntConst:
		return true
	case *ast.Ref:
		v := c.lookup(x)
		return v != nil && v.Type == ast.Integer
	case *ast.UnaryMinus:
		return c.isInt(x.X)
	case *ast.Not:
		return true
	case *ast.BinOp:
		return x.Op.IsRelational() || (c.isInt(x.L) && c.isInt(x.R))
	case *ast.Call:
		switch x.Name {
		case "abs", "max", "min", "mod":
			for _, a := range x.Args {
				if !c.isInt(a) {
					return false
				}
			}
			return true
		}
	}
	return false
}

// offset computes the linear (row-major, 1-based) offset of the element,
// rejecting out-of-bounds subscripts. IR construction checks the subscript
// count, and NewStateBudget bounds every array to maxArrayElems, so the
// arithmetic cannot wrap once the bounds hold.
func (e *elemRef) offset(s *State) (int64, error) {
	off, stride := int64(0), int64(1)
	for k, d := range e.v.Dims {
		x, err := e.subs[k](s)
		if err != nil {
			return 0, err
		}
		if x < 1 || x > d {
			if e.line > 0 {
				return 0, fmt.Errorf("line %d: %s subscript %d out of bounds: %d (extent %d)", e.line, e.v.Name, k+1, x, d)
			}
			return 0, fmt.Errorf("%s subscript %d out of bounds: %d (extent %d)", e.v.Name, k+1, x, d)
		}
		off += (x - 1) * stride
		stride *= d
	}
	return off, nil
}

// load reads the element.
func (e *elemRef) load(s *State) (float64, error) {
	off, err := e.offset(s)
	if err != nil {
		return 0, err
	}
	return s.arrays[e.v.Slot][off], nil
}

// exact reports whether x is within the range where int64 and float64
// arithmetic agree.
func exact(x int64) bool { return x <= maxExactInt && x >= -maxExactInt }

// exactFloat converts an integral float64 within ±2^53.
func exactFloat(x float64) (int64, bool) {
	if !(x <= float64(maxExactInt) && x >= -float64(maxExactInt)) {
		return 0, false // out of range or NaN
	}
	v := int64(x)
	return v, float64(v) == x
}

// toInt is the float path's integer conversion: values beyond ±2^53 (and
// NaN) are rejected instead of wrapping.
func toInt(x float64) (int64, error) {
	if math.IsNaN(x) || x > float64(maxExactInt) || x < -float64(maxExactInt) {
		return 0, &NumericError{What: "integer value", Val: x}
	}
	return int64(math.Round(x)), nil
}

// divInt is integer division on the float path: truncation toward zero,
// exact in int64 when both operands are integral within ±2^53.
func divInt(l, r float64, line int) (float64, error) {
	if r == 0 {
		return 0, divZero(line)
	}
	li, lok := exactFloat(l)
	ri, rok := exactFloat(r)
	if lok && rok {
		return float64(li / ri), nil
	}
	return math.Trunc(l / r), nil
}

func divZero(line int) error {
	return fmt.Errorf("line %d: integer division by zero", line)
}

// int compiles e for an integer context (subscripts, loop bounds).
func (c *compiler) int(e ast.Expr, line int) ixpr {
	if x, ok := e.(*ast.IntConst); ok && exact(x.Value) {
		v := x.Value
		return func(*State) (int64, error) { return v, nil }
	}
	f := c.float(e, line)
	fallback := func(s *State) (int64, error) {
		x, err := f(s)
		if err != nil {
			return 0, err
		}
		return toInt(x)
	}
	// The common subscripts, i and i±c, get fused closures.
	if slot, ok := c.index(e); ok {
		return func(s *State) (int64, error) {
			if i := s.indices[slot]; exact(i) {
				return i, nil
			}
			return fallback(s)
		}
	}
	if x, ok := e.(*ast.BinOp); ok && (x.Op == ast.Add || x.Op == ast.Sub) {
		slot, isIndex := c.index(x.L)
		k, isConst := x.R.(*ast.IntConst)
		if isIndex && isConst && exact(k.Value) {
			d := k.Value
			if x.Op == ast.Sub {
				d = -d
			}
			return func(s *State) (int64, error) {
				if i := s.indices[slot]; exact(i) {
					if v := i + d; exact(v) {
						return v, nil
					}
				}
				return fallback(s)
			}
		}
	}
	ip := c.exactInt(e, line)
	if ip == nil {
		return fallback
	}
	return func(s *State) (int64, error) {
		v, ok, err := ip(s)
		if err != nil {
			return 0, err
		}
		if ok {
			return v, nil
		}
		return fallback(s)
	}
}

// index reports whether e is a loop index, and its slot.
func (c *compiler) index(e ast.Expr) (int32, bool) {
	if x, ok := e.(*ast.Ref); ok {
		if v := c.lookup(x); v != nil && v.IsLoopIndex {
			return v.Slot, true
		}
	}
	return 0, false
}

// bail is the int path's "left the exact range" result.
func bail(*State) (int64, bool, error) { return 0, false, nil }

// exactInt compiles the int64 path of e, or returns nil when e contains a
// node that path does not take (real constants, real division, relations,
// intrinsic calls); such trees always use the float path.
func (c *compiler) exactInt(e ast.Expr, line int) iexpr {
	switch x := e.(type) {
	case *ast.IntConst:
		if !exact(x.Value) {
			return bail
		}
		v := x.Value
		return func(*State) (int64, bool, error) { return v, true, nil }
	case *ast.Ref:
		v := c.lookup(x)
		if v == nil {
			return nil
		}
		slot := v.Slot
		switch {
		case v.IsLoopIndex:
			return func(s *State) (int64, bool, error) {
				i := s.indices[slot]
				return i, exact(i), nil
			}
		case !v.IsArray():
			return func(s *State) (int64, bool, error) {
				i, ok := exactFloat(s.scalars[slot])
				return i, ok, nil
			}
		}
		el := c.elem(x, v, line)
		return func(s *State) (int64, bool, error) {
			f, err := el.load(s)
			if err != nil {
				return 0, false, err
			}
			i, ok := exactFloat(f)
			return i, ok, nil
		}
	case *ast.UnaryMinus:
		a := c.exactInt(x.X, line)
		if a == nil {
			return nil
		}
		return func(s *State) (int64, bool, error) {
			v, ok, err := a(s)
			return -v, ok, err
		}
	case *ast.BinOp:
		return c.exactBin(x, line)
	}
	return nil
}

func (c *compiler) exactBin(x *ast.BinOp, line int) iexpr {
	if x.Op == ast.Div && !(c.isInt(x.L) && c.isInt(x.R)) {
		return nil // real division
	}
	var op func(l, r int64) (int64, bool, error)
	switch x.Op {
	case ast.Add:
		op = func(l, r int64) (int64, bool, error) { v := l + r; return v, exact(v), nil }
	case ast.Sub:
		op = func(l, r int64) (int64, bool, error) { v := l - r; return v, exact(v), nil }
	case ast.Mul:
		op = func(l, r int64) (int64, bool, error) {
			hi, lo := bits.Mul64(absU(l), absU(r))
			if hi != 0 || lo > uint64(maxExactInt) {
				return 0, false, nil
			}
			return l * r, true, nil
		}
	case ast.Div:
		op = func(l, r int64) (int64, bool, error) {
			if r == 0 {
				return 0, false, divZero(line)
			}
			return l / r, true, nil
		}
	default:
		return nil
	}
	L, R := c.exactInt(x.L, line), c.exactInt(x.R, line)
	if L == nil || R == nil {
		return nil
	}
	return func(s *State) (int64, bool, error) {
		l, ok, err := L(s)
		if !ok || err != nil {
			return 0, false, err
		}
		r, ok, err := R(s)
		if !ok || err != nil {
			return 0, false, err
		}
		return op(l, r)
	}
}

func absU(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// float compiles the float64 path of e.
func (c *compiler) float(e ast.Expr, line int) fexpr {
	switch x := e.(type) {
	case *ast.IntConst:
		v := float64(x.Value)
		return func(*State) (float64, error) { return v, nil }
	case *ast.RealConst:
		v := x.Value
		return func(*State) (float64, error) { return v, nil }
	case *ast.Ref:
		v := c.lookup(x)
		if v == nil {
			err := fmt.Errorf("unknown variable %s", x.Name)
			return func(*State) (float64, error) { return 0, err }
		}
		slot := v.Slot
		switch {
		case v.IsLoopIndex:
			return func(s *State) (float64, error) { return float64(s.indices[slot]), nil }
		case !v.IsArray():
			return func(s *State) (float64, error) { return s.scalars[slot], nil }
		}
		return c.elem(x, v, line).load
	case *ast.UnaryMinus:
		a := c.float(x.X, line)
		return func(s *State) (float64, error) {
			v, err := a(s)
			return -v, err
		}
	case *ast.Not:
		a := c.float(x.X, line)
		return func(s *State) (float64, error) {
			v, err := a(s)
			if err != nil {
				return 0, err
			}
			return b2f(v == 0), nil
		}
	case *ast.BinOp:
		return c.floatBin(x, line)
	case *ast.Call:
		return c.floatCall(x, line)
	}
	err := fmt.Errorf("unsupported expression %T", e)
	return func(*State) (float64, error) { return 0, err }
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (c *compiler) floatBin(x *ast.BinOp, line int) fexpr {
	L, R := c.float(x.L, line), c.float(x.R, line)
	// The arithmetic operators carry nearly every right-hand side, so each
	// gets its own closure; the rest share one through an operator func.
	var op func(l, r float64) (float64, error)
	switch x.Op {
	case ast.Add:
		return func(s *State) (float64, error) {
			l, err := L(s)
			if err != nil {
				return 0, err
			}
			r, err := R(s)
			return l + r, err
		}
	case ast.Sub:
		return func(s *State) (float64, error) {
			l, err := L(s)
			if err != nil {
				return 0, err
			}
			r, err := R(s)
			return l - r, err
		}
	case ast.Mul:
		return func(s *State) (float64, error) {
			l, err := L(s)
			if err != nil {
				return 0, err
			}
			r, err := R(s)
			return l * r, err
		}
	case ast.Div:
		if !(c.isInt(x.L) && c.isInt(x.R)) {
			return func(s *State) (float64, error) {
				l, err := L(s)
				if err != nil {
					return 0, err
				}
				r, err := R(s)
				return l / r, err
			}
		}
		op = func(l, r float64) (float64, error) { return divInt(l, r, line) }
	case ast.OpEq:
		op = func(l, r float64) (float64, error) { return b2f(l == r), nil }
	case ast.OpNe:
		op = func(l, r float64) (float64, error) { return b2f(l != r), nil }
	case ast.OpLt:
		op = func(l, r float64) (float64, error) { return b2f(l < r), nil }
	case ast.OpLe:
		op = func(l, r float64) (float64, error) { return b2f(l <= r), nil }
	case ast.OpGt:
		op = func(l, r float64) (float64, error) { return b2f(l > r), nil }
	case ast.OpGe:
		op = func(l, r float64) (float64, error) { return b2f(l >= r), nil }
	case ast.OpAnd:
		op = func(l, r float64) (float64, error) { return b2f(l != 0 && r != 0), nil }
	case ast.OpOr:
		op = func(l, r float64) (float64, error) { return b2f(l != 0 || r != 0), nil }
	default:
		op = func(float64, float64) (float64, error) { return 0, fmt.Errorf("bad operator") }
	}
	return func(s *State) (float64, error) {
		l, err := L(s)
		if err != nil {
			return 0, err
		}
		r, err := R(s)
		if err != nil {
			return 0, err
		}
		return op(l, r)
	}
}

func (c *compiler) floatCall(x *ast.Call, line int) fexpr {
	args := make([]fexpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.float(a, line)
	}
	var unary func(float64) float64
	switch x.Name {
	case "abs":
		unary = math.Abs
	case "sqrt":
		unary = math.Sqrt
	case "exp":
		unary = math.Exp
	case "max", "min":
		less := x.Name == "min"
		return func(s *State) (float64, error) {
			best, err := args[0](s)
			if err != nil {
				return 0, err
			}
			for _, a := range args[1:] {
				v, err := a(s)
				if err != nil {
					return 0, err
				}
				if (!less && v > best) || (less && v < best) {
					best = v
				}
			}
			return best, nil
		}
	case "mod":
		a, b := args[0], args[1]
		return func(s *State) (float64, error) {
			l, err := a(s)
			if err != nil {
				return 0, err
			}
			r, err := b(s)
			if err != nil {
				return 0, err
			}
			return math.Mod(l, r), nil
		}
	default:
		name := x.Name
		return func(s *State) (float64, error) {
			for _, a := range args {
				if _, err := a(s); err != nil {
					return 0, err
				}
			}
			return 0, fmt.Errorf("unknown intrinsic %s", name)
		}
	}
	a := args[0]
	return func(s *State) (float64, error) {
		v, err := a(s)
		if err != nil {
			return 0, err
		}
		return unary(v), nil
	}
}
