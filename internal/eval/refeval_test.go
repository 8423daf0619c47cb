package eval

import (
	"fmt"
	"math"

	"phpf/internal/ast"
	"phpf/internal/ir"
)

// refEval is the reference interpreter the compiled evaluator is checked
// against: it walks the expression tree node by node in float64, the way the
// runtime did before expressions were compiled, with the two rules the
// compiled code adds — integer ÷ integer truncates (and fails on zero), and
// an out-of-bounds read names its line.
func refEval(s *State, e ast.Expr, line int) (float64, error) {
	switch x := e.(type) {
	case *ast.IntConst:
		return float64(x.Value), nil
	case *ast.RealConst:
		return x.Value, nil
	case *ast.Ref:
		var v *ir.Var
		if x.Slot > 0 {
			v = s.slots[x.Slot-1]
		} else if v = s.Prog.Res.Prog.LookupVar(x.Name); v == nil {
			return 0, fmt.Errorf("unknown variable %s", x.Name)
		}
		if v.IsLoopIndex {
			return float64(s.indices[v.Slot]), nil
		}
		if !v.IsArray() {
			return s.scalars[v.Slot], nil
		}
		off := int64(0)
		stride := int64(1)
		for k := 0; k < v.Rank(); k++ {
			sub, err := refEvalInt(s, x.Subs[k], line)
			if err != nil {
				return 0, err
			}
			if sub < 1 || sub > v.Dims[k] {
				return 0, fmt.Errorf("line %d: %s subscript %d out of bounds: %d (extent %d)",
					line, v.Name, k+1, sub, v.Dims[k])
			}
			off += (sub - 1) * stride
			stride *= v.Dims[k]
		}
		return s.arrays[v.Slot][off], nil
	case *ast.UnaryMinus:
		r, err := refEval(s, x.X, line)
		if err != nil {
			return 0, err
		}
		return -r, nil
	case *ast.Not:
		r, err := refEval(s, x.X, line)
		if err != nil {
			return 0, err
		}
		if r == 0 {
			return 1, nil
		}
		return 0, nil
	case *ast.BinOp:
		l, err := refEval(s, x.L, line)
		if err != nil {
			return 0, err
		}
		r, err := refEval(s, x.R, line)
		if err != nil {
			return 0, err
		}
		c := &compiler{s: s}
		if x.Op == ast.Div && c.isInt(x.L) && c.isInt(x.R) {
			if r == 0 {
				return 0, fmt.Errorf("line %d: integer division by zero", line)
			}
			if l == math.Trunc(l) && r == math.Trunc(r) &&
				math.Abs(l) <= 1<<53 && math.Abs(r) <= 1<<53 {
				return float64(int64(l) / int64(r)), nil
			}
			return math.Trunc(l / r), nil
		}
		return refBin(x.Op, l, r)
	case *ast.Call:
		args := make([]float64, len(x.Args))
		for k, aexp := range x.Args {
			v, err := refEval(s, aexp, line)
			if err != nil {
				return 0, err
			}
			args[k] = v
		}
		return refCall(x.Name, args)
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

// refEvalInt evaluates an expression as an integer through the float path,
// rejecting values outside ±2^53.
func refEvalInt(s *State, e ast.Expr, line int) (int64, error) {
	x, err := refEval(s, e, line)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(x) || x > float64(maxExactInt) || x < -float64(maxExactInt) {
		return 0, &NumericError{What: "integer value", Val: x}
	}
	return int64(math.Round(x)), nil
}

func refBin(op ast.Op, l, r float64) (float64, error) {
	switch op {
	case ast.Add:
		return l + r, nil
	case ast.Sub:
		return l - r, nil
	case ast.Mul:
		return l * r, nil
	case ast.Div:
		return l / r, nil
	case ast.OpEq:
		return b2f(l == r), nil
	case ast.OpNe:
		return b2f(l != r), nil
	case ast.OpLt:
		return b2f(l < r), nil
	case ast.OpLe:
		return b2f(l <= r), nil
	case ast.OpGt:
		return b2f(l > r), nil
	case ast.OpGe:
		return b2f(l >= r), nil
	case ast.OpAnd:
		return b2f(l != 0 && r != 0), nil
	case ast.OpOr:
		return b2f(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("bad operator")
}

func refCall(name string, args []float64) (float64, error) {
	switch name {
	case "abs":
		return math.Abs(args[0]), nil
	case "sqrt":
		return math.Sqrt(args[0]), nil
	case "exp":
		return math.Exp(args[0]), nil
	case "max":
		best := args[0]
		for _, a := range args[1:] {
			if a > best {
				best = a
			}
		}
		return best, nil
	case "min":
		best := args[0]
		for _, a := range args[1:] {
			if a < best {
				best = a
			}
		}
		return best, nil
	case "mod":
		return math.Mod(args[0], args[1]), nil
	}
	return 0, fmt.Errorf("unknown intrinsic %s", name)
}
