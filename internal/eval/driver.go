// The plan driver: the one interpretation of the SPMD plan both backends
// share. It observes the walk as a Backend, decides every operation the plan
// implies at each event — which hoisted transfers run, which per-instance
// transfers are skipped, where each reduction combines, which copy-outs are
// degenerate, where checkpoint boundaries and crash-check sites fall — and
// emits the decided operations, in program order, to a Consumer. The
// simulator's consumer charges the cost model; the concurrent executor's
// performs the matching real traffic and feeds the same accountant.
package eval

import (
	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// Consumer receives the operations a Driver decides. A method returning an
// error aborts the walk with it.
type Consumer interface {
	// Enter opens a planned loop entry, before its hoisted transfers.
	// boundary marks a coordinated-checkpoint boundary: no aggregated
	// transfer is in flight there, so a consistent checkpoint needs no
	// message draining.
	Enter(boundary bool) error
	// Hoisted is one vectorized transfer of the entry. A VecSkip op moves
	// nothing and is not followed by a Site.
	Hoisted(req *comm.Requirement, op VectorizedOp) error
	// Instance is one per-instance transfer of a statement instance. Every
	// processor pays guard seconds evaluating the ownership guard, whether
	// or not a message flows; a skipped op moves nothing and is not
	// followed by a Site.
	Instance(st *ir.Stmt, req *comm.Requirement, op InstanceOp, guard float64) error
	// Compute closes a statement instance: set computes for seconds (0 when
	// the statement has no arithmetic).
	Compute(st *ir.Stmt, set dist.ProcSet, seconds float64) error
	// Exit opens a planned loop exit, before its combines and copy-outs.
	Exit() error
	// Merge is the loop-exit tree merge of a privatized combine whose
	// partial rows (elems elements each) the driver has already folded;
	// hops is the merge tree.
	Merge(c *spmd.Combine, elems int64, hops []MergeHop) error
	// Collective is the §2.3 global reduction of a combine over set.
	Collective(c *spmd.Combine, set dist.ProcSet) error
	// CopyOut broadcasts a lastprivate scalar's final value from root to
	// every processor.
	CopyOut(m *core.ScalarMapping, root int) error
	// Redistribute is the all-to-all of an executable redistribution
	// (perProc bytes leave each processor); the State already holds the new
	// mapping.
	Redistribute(st *ir.Stmt, perProc int64) error
	// Tick follows every loop iteration, before that iteration's Site.
	Tick() error
	// Site is a crash-check site. One follows every non-skipped hoisted or
	// per-instance transfer, every redistribution and every Tick.
	Site() error
}

// Driver implements Backend over a State and emits the decided operations
// to a Consumer.
type Driver struct {
	st        *State
	c         Consumer
	elemBytes int64
	flopTime  float64
	guardTime float64
}

// NewDriver returns the driver of one walk over st. p sizes the operations:
// element bytes for transfers, flop time for computation, guard time per
// per-instance transfer.
func NewDriver(st *State, c Consumer, p machine.Params) *Driver {
	return &Driver{st: st, c: c, elemBytes: p.ElemBytes, flopTime: p.FlopTime, guardTime: p.GuardTime}
}

// privArray reports whether a combine runs as a privatized elementwise
// reduction: its updates accumulate at the data owners, so neither their
// per-instance nor their hoisted transfers happen.
func (d *Driver) privArray(c *spmd.Combine) bool {
	return d.st.PrivatizedActive(c) && c.Mapping == nil
}

// LoopEntry emits the entry's checkpoint boundary and hoisted transfers.
func (d *Driver) LoopEntry(l *ir.Loop, lp *spmd.LoopPlan) error {
	if err := d.c.Enter(len(lp.Hoisted) > 0 || l.Parent == nil); err != nil {
		return err
	}
	for _, req := range lp.Hoisted {
		if sp := d.st.Prog.PlanOf(req.Stmt); sp != nil && d.privArray(sp.Combine) {
			continue
		}
		op, err := d.st.VectorizedOp(req, d.elemBytes)
		if err != nil {
			return err
		}
		if err := d.c.Hoisted(req, op); err != nil {
			return err
		}
		if op.Kind != VecSkip {
			if err := d.c.Site(); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoopExit emits the reduction combines attached to the loop, then its
// lastprivate copy-outs.
func (d *Driver) LoopExit(l *ir.Loop, lp *spmd.LoopPlan) error {
	if err := d.c.Exit(); err != nil {
		return err
	}
	for _, c := range lp.Combines {
		if d.st.PrivatizedActive(c) {
			elems := d.st.PartialElems(c)
			hops, err := d.st.MergePartials(c)
			if err != nil {
				return err
			}
			if err := d.c.Merge(c, elems, hops); err != nil {
				return err
			}
			continue
		}
		if c.Mapping == nil {
			// A collective elementwise reduction has no combine operation:
			// its reference execution is plain per-instance owner-computes.
			continue
		}
		if err := d.c.Collective(c, d.st.PatternSet(c.Mapping.Pattern, nil)); err != nil {
			return err
		}
	}
	all := d.st.Grid().Size()
	for _, m := range lp.CopyOuts {
		// The walker leaves the loop index at its final executed value, so
		// the pattern's owners are the final iteration's owners.
		src := d.st.PatternSet(m.Pattern, nil)
		if src.Count() == all {
			continue // degenerate alignment: already everywhere
		}
		if err := d.c.CopyOut(m, src.First()); err != nil {
			return err
		}
	}
	return nil
}

// Statement emits one statement instance's per-instance transfers and its
// computation. A privatized elementwise reduction update accumulates into
// the data owner's partial row instead: its per-instance transfers vanish
// and the computation lands on the data owners.
func (d *Driver) Statement(st *ir.Stmt, sp *spmd.StmtPlan) error {
	var set dist.ProcSet
	var err error
	if d.privArray(sp.Combine) {
		if ref := sp.Combine.Red.DataRef; ref != nil {
			set, err = d.st.OwnerSet(ref)
		} else {
			set, err = d.st.ExecSet(sp)
		}
	} else {
		for _, req := range sp.PerInstance {
			op, err := d.st.InstanceOp(req, sp, d.elemBytes)
			if err != nil {
				return err
			}
			// Communication left inside a loop defeats loop-bound
			// shrinking: every processor traverses the iteration space
			// evaluating the ownership guard.
			if err := d.c.Instance(st, req, op, d.guardTime); err != nil {
				return err
			}
			if op.Skip {
				continue
			}
			if err := d.c.Site(); err != nil {
				return err
			}
		}
		set, err = d.st.ExecSet(sp)
	}
	if err != nil {
		return err
	}
	return d.c.Compute(st, set, float64(sp.Flops)*d.flopTime)
}

// Redistribute emits the all-to-all of an executable redistribution.
func (d *Driver) Redistribute(st *ir.Stmt) error {
	if err := d.c.Redistribute(st, d.st.RedistBytesPerProc(st, d.elemBytes)); err != nil {
		return err
	}
	return d.c.Site()
}

// Tick emits the iteration's tick and its crash-check site.
func (d *Driver) Tick() error {
	if err := d.c.Tick(); err != nil {
		return err
	}
	return d.c.Site()
}
