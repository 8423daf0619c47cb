// The program walker: structured control flow (loops, block IFs, gotos) and
// value semantics, identical for every backend. Backends observe the walk at
// the points where cost is charged or messages flow.
package eval

import (
	"fmt"

	"phpf/internal/ir"
	"phpf/internal/spmd"
)

// Backend receives the walk's execution events. The walker has already
// updated the State when an event fires except where noted. Both execution
// backends observe the walk through the plan driver (Driver); a Backend may
// abort the walk by returning an error.
type Backend interface {
	// LoopEntry fires once per entry of a loop, after the bounds statement
	// and with the loop index set to the lower bound (so affine evaluation
	// of the hoisted communications has a defined base), before any
	// iteration runs.
	LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error
	// LoopExit fires after the last iteration (global reduction combines
	// run here). It fires even when the loop had zero iterations.
	LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error
	// Statement fires once per statement instance, before its value
	// semantics: per-instance communication and the computation charge
	// happen here.
	Statement(st *ir.Stmt, sp *spmd.StmtPlan) error
	// Redistribute fires after an executable redistribution has updated
	// the dynamic mapping in the State.
	Redistribute(st *ir.Stmt) error
	// Tick fires after every loop iteration: abort checks (simulated time
	// limits, context cancellation) belong here.
	Tick() error
}

// GotoEscapeError reports a goto whose target label lies outside the
// program.
type GotoEscapeError struct{ Label int }

func (e *GotoEscapeError) Error() string {
	return fmt.Sprintf("goto %d escaped the program", e.Label)
}

// Walk interprets the program over s, reporting events to b. It returns the
// first error a callback or the value semantics produce.
func Walk(s *State, b Backend) error {
	w := &walker{s: s, b: b}
	ctl, err := w.nodes(s.Prog.Res.Prog.Body, false)
	if err != nil {
		return err
	}
	if ctl.kind == ctlGoto {
		return &GotoEscapeError{Label: ctl.label}
	}
	return nil
}

type ctlKind int

const (
	ctlNormal ctlKind = iota
	ctlGoto
)

type control struct {
	kind  ctlKind
	label int
}

type walker struct {
	s *State
	b Backend

	// Resume-cursor tracking (see resume.go). Plain Walk leaves track off,
	// so the simulator's hot path pays nothing for it.
	track bool
	path  []frame
	pend  pending
	seek  []frame
	// Bounds of the seek target loop, recorded by the cursor so resumption
	// does not re-evaluate (and re-charge) the bounds expressions.
	seekLo, seekHi, seekStep int64
}

// nodes interprets one statement list. els distinguishes an IF's else
// branch from its then branch in the resume cursor; the untracked path
// ignores it.
func (w *walker) nodes(nodes []ir.Node, els bool) (control, error) {
	if w.track {
		return w.nodesTracked(nodes, els)
	}
	for i := 0; i < len(nodes); i++ {
		ctl, err := w.node(nodes[i])
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			// Look for the labeled CONTINUE later in this sequence.
			target := -1
			for j := range nodes {
				if st, ok := nodes[j].(*ir.Stmt); ok && st.Kind == ir.SContinue && st.Label == ctl.label {
					target = j
					break
				}
			}
			if target < 0 {
				return ctl, nil // propagate upward
			}
			i = target // resume at the label
			continue
		}
	}
	return control{}, nil
}

func (w *walker) node(n ir.Node) (control, error) {
	switch x := n.(type) {
	case *ir.Stmt:
		return w.stmt(x)
	case *ir.If:
		return w.ifNode(x)
	case *ir.Loop:
		return w.loop(x)
	}
	return control{}, nil
}

func (w *walker) loop(l *ir.Loop) (control, error) {
	s := w.s
	if l.BoundsStmt != nil {
		if _, err := w.stmt(l.BoundsStmt); err != nil {
			return control{}, err
		}
	}
	lo, hi, step, err := s.bounds(l)
	if err != nil {
		return control{}, err
	}
	if step == 0 {
		return control{}, fmt.Errorf("zero loop step at line %d", l.Line)
	}

	lp := s.Prog.LoopPlanOf(l)
	if lp != nil {
		// The loop index ranges over the whole iteration space for the
		// purpose of any aggregated transfer; set it to lo so affine
		// evaluation has a defined base.
		s.indices[l.Index.Slot] = lo
		// A checkpoint cursor may be captured inside this callback; the
		// pending bounds complete it (see State.Cursor).
		w.pend = pending{lo: lo, hi: hi, step: step, ok: w.track}
		err := w.b.LoopEntry(l, lp)
		w.pend.ok = false
		if err != nil {
			return control{}, err
		}
	}
	return w.iterate(l, lp, lo, hi, step)
}

// iterate runs the loop body over [lo,hi]/step and fires LoopExit. It is
// shared by the normal walk, cursor resumption (which re-fires the target
// loop's LoopEntry first), and cursor seeking (which enters an enclosing
// loop mid-flight without re-firing its LoopEntry).
func (w *walker) iterate(l *ir.Loop, lp *spmd.LoopPlan, lo, hi, step int64) (control, error) {
	s := w.s
	depth := -1
	if w.track {
		depth = len(w.path)
		w.path = append(w.path, frame{loop: true, v: lo, hi: hi, step: step})
	}
	for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
		if w.track {
			w.path[depth].v = v
		}
		s.indices[l.Index.Slot] = v
		s.epoch++
		ctl, err := w.nodes(l.Body, false)
		if err != nil {
			return control{}, err
		}
		if ctl.kind == ctlGoto {
			if w.track {
				w.path = w.path[:depth]
			}
			return ctl, nil // escaping goto terminates the loop
		}
		if err := w.b.Tick(); err != nil {
			return control{}, err
		}
	}
	if w.track {
		w.path = w.path[:depth]
	}

	if lp != nil {
		if err := w.b.LoopExit(l, lp); err != nil {
			return control{}, err
		}
	}
	return control{}, nil
}

func (w *walker) ifNode(ifn *ir.If) (control, error) {
	if _, err := w.stmt(ifn.Cond); err != nil {
		return control{}, err
	}
	c, err := w.s.code.cond[ifn.Cond.ID](w.s)
	if err != nil {
		return control{}, err
	}
	if c != 0 {
		return w.nodes(ifn.Then, false)
	}
	return w.nodes(ifn.Else, true)
}

// stmt reports the statement to the backend (communication and computation
// charges), then computes its value semantics.
func (w *walker) stmt(st *ir.Stmt) (control, error) {
	s := w.s
	sp := s.Prog.PlanOf(st)
	if err := w.b.Statement(st, sp); err != nil {
		return control{}, err
	}

	switch st.Kind {
	case ir.SAssign:
		if s.PrivatizedActive(sp.Combine) {
			// A privatized reduction update accumulates into the partial
			// tables; the real accumulator is only written by the loop-exit
			// merge.
			if err := s.AccumulatePrivate(st, sp.Combine); err != nil {
				return control{}, err
			}
			return control{}, nil
		}
		val, err := s.code.rhs[st.ID](s)
		if err != nil {
			return control{}, err
		}
		if err := s.store(st.Lhs, val); err != nil {
			return control{}, err
		}
	case ir.SIfGoto:
		c, err := s.code.cond[st.ID](s)
		if err != nil {
			return control{}, err
		}
		if c != 0 {
			return control{kind: ctlGoto, label: st.Label}, nil
		}
	case ir.SGoto:
		return control{kind: ctlGoto, label: st.Label}, nil
	case ir.SRedistribute:
		if err := s.ApplyRedistribute(st); err != nil {
			return control{}, err
		}
		if err := w.b.Redistribute(st); err != nil {
			return control{}, err
		}
	case ir.SContinue, ir.SIf, ir.SLoopBounds:
		// No value semantics here (If predicates are evaluated by ifNode).
	}
	return control{}, nil
}
