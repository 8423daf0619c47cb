package sim

import (
	"context"
	"sort"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
)

// Accountant charges the operations the plan driver decides to the cost
// model. It is the eval.Consumer that, with the driver, makes the simulator;
// the concurrent backend's charging workers feed the same type. It owns the
// machine, the seeded fault injector with crash recovery, the checkpoint
// schedule, the run's abort conditions and the per-statement profile.
type Accountant struct {
	ctx  context.Context
	st   *eval.State
	cfg  Config
	mach *machine.Machine
	inj  *fault.Injector

	// lastCkpt is the simulated time of the last coordinated checkpoint or
	// recovery (the implicit free checkpoint at t=0 until a real one).
	lastCkpt float64
	// crashed lists the crashes the last Site recovered from.
	crashed []fault.Crash

	// profile accumulates per-statement attribution when enabled. open is
	// the statement whose window is open (nil: none), before the clock sum
	// when it opened; a hoisted window closes at its Site, a statement
	// window at its Compute.
	profile     map[*ir.Stmt]*StmtProfile
	open        *ir.Stmt
	openHoisted bool
	before      float64
}

// NewAccountant returns the accountant of one run over st. cfg must have
// passed Validate and carry its machine parameters; its Trace field is not
// consulted (callers attach recorders to Machine). ctx cancellation aborts
// the run at the next Site.
func NewAccountant(ctx context.Context, st *eval.State, cfg Config) *Accountant {
	a := &Accountant{ctx: ctx, st: st, cfg: cfg, mach: machine.New(st.Grid(), cfg.Params),
		inj: fault.NewInjector(cfg.Fault)}
	a.mach.Fault = a.inj
	if cfg.Profile {
		a.profile = map[*ir.Stmt]*StmtProfile{}
	}
	return a
}

// Machine returns the charged machine: its clocks, statistics and trace
// attachment.
func (a *Accountant) Machine() *machine.Machine { return a.mach }

// ---------------------------------------------------------------------------
// eval.Consumer

// Enter takes a coordinated checkpoint at a boundary whose interval has
// elapsed.
func (a *Accountant) Enter(boundary bool) error {
	if boundary {
		a.TakeCheckpoint()
	}
	return nil
}

// Hoisted charges one vectorized transfer.
func (a *Accountant) Hoisted(req *comm.Requirement, op eval.VectorizedOp) error {
	a.begin(req.Stmt, true)
	a.mach.SetAttr(req.Stmt.ID, req.ID, req.Class)
	switch op.Kind {
	case eval.VecSkip:
		a.mach.ClearAttr()
		a.end()
	case eval.VecShift:
		a.mach.Shift(op.Participants, op.PerProc)
	case eval.VecBcast:
		a.mach.Multicast(op.From, op.Dst, op.Bytes)
	case eval.VecExchange:
		a.mach.Exchange(op.Src, op.Dst, op.Bytes)
	}
	return nil
}

// Instance charges the ownership guard on every processor and, unless the
// op is skipped, one element message.
func (a *Accountant) Instance(st *ir.Stmt, req *comm.Requirement, op eval.InstanceOp, guard float64) error {
	a.begin(st, false)
	a.mach.SetAttr(st.ID, req.ID, req.Class)
	a.mach.Compute(dist.AllProcs(a.st.Grid()), guard)
	if op.Skip {
		return nil
	}
	if to, one := op.Dst.IsSingle(); one {
		a.mach.Send(op.From, to, op.Bytes)
	} else {
		a.mach.Multicast(op.From, op.Dst, op.Bytes)
	}
	return nil
}

// Compute charges the statement's computation and closes its instance.
func (a *Accountant) Compute(st *ir.Stmt, set dist.ProcSet, seconds float64) error {
	a.begin(st, false)
	if seconds > 0 {
		a.mach.SetAttr(st.ID, -1, dist.CommNone)
		a.mach.Compute(set, seconds)
	}
	a.mach.ClearAttr()
	a.end()
	return nil
}

// Exit has nothing to charge.
func (*Accountant) Exit() error { return nil }

// Merge charges a privatized combine's tree merge over all processors.
func (a *Accountant) Merge(c *spmd.Combine, elems int64, _ []eval.MergeHop) error {
	a.mach.SetAttr(c.Red.Stmt.ID, -1, dist.CommNone)
	a.mach.TreeMerge(dist.AllProcs(a.st.Grid()), elems*a.cfg.Params.ElemBytes, a.st.Prog.NProcs())
	a.mach.ClearAttr()
	return nil
}

// Collective charges the §2.3 global reduction over set.
func (a *Accountant) Collective(c *spmd.Combine, set dist.ProcSet) error {
	a.mach.SetAttr(defStmt(c.Mapping), -1, dist.CommNone)
	a.mach.Reduce(set, a.cfg.Params.ElemBytes)
	a.mach.ClearAttr()
	return nil
}

// CopyOut charges the broadcast of a lastprivate scalar's final value.
func (a *Accountant) CopyOut(m *core.ScalarMapping, root int) error {
	a.mach.SetAttr(defStmt(m), -1, dist.CommBcast)
	a.mach.Multicast(root, dist.AllProcs(a.st.Grid()), a.cfg.Params.ElemBytes)
	a.mach.ClearAttr()
	return nil
}

// defStmt is the ID of the statement defining a scalar mapping (-1: none).
func defStmt(m *core.ScalarMapping) int {
	if m.Def != nil && m.Def.Stmt != nil {
		return m.Def.Stmt.ID
	}
	return -1
}

// Redistribute charges the all-to-all of a redistribution.
func (a *Accountant) Redistribute(st *ir.Stmt, perProc int64) error {
	a.mach.SetAttr(st.ID, -1, dist.CommGeneral)
	a.mach.AllToAll(dist.AllProcs(a.st.Grid()), perProc)
	a.mach.ClearAttr()
	return nil
}

// Tick has nothing to charge: the Site that follows checks the run.
func (*Accountant) Tick() error { return nil }

// Site aborts on cancellation, fires every scheduled crash now due —
// charging each recovery and recording it in Crashed — and enforces the
// simulated time limit.
func (a *Accountant) Site() error {
	err := a.ctx.Err()
	if err == nil {
		a.crashed = a.crashed[:0]
		// Recovery advances the clocks, which may bring the next scheduled
		// crash due, so drain until quiescent (each crash fires once).
		for c := a.PendingCrash(); c != nil; c = a.PendingCrash() {
			a.recoverCrash(*c, a.mach.Time())
			a.crashed = append(a.crashed, *c)
		}
		if a.cfg.MaxSeconds > 0 && a.mach.Time() > a.cfg.MaxSeconds {
			err = errAbort{}
		}
	}
	a.mach.ClearAttr()
	if a.openHoisted {
		a.end()
	}
	return err
}

// ---------------------------------------------------------------------------
// Checkpointing and crash recovery

// Crashed returns the crashes the last Site recovered from (valid until
// the next Site).
func (a *Accountant) Crashed() []fault.Crash { return a.crashed }

// PendingCrash fires the earliest scheduled crash due at the current
// simulated time, without recovering from it (nil: none due).
func (a *Accountant) PendingCrash() *fault.Crash {
	if a.inj == nil {
		return nil
	}
	return a.inj.PendingCrash(a.mach.Time())
}

// TakeCheckpoint takes a coordinated checkpoint when the configured
// interval has elapsed since the last one, reporting whether it did.
// Checkpoint state is each processor's partition of the distributed arrays
// plus its private scalar copies, written to stable storage at link speed.
func (a *Accountant) TakeCheckpoint() bool {
	if a.cfg.CheckpointInterval <= 0 || a.mach.Time()-a.lastCkpt < a.cfg.CheckpointInterval {
		return false
	}
	a.mach.ClearAttr()
	a.mach.Checkpoint(eval.CheckpointBytes(a.st, a.cfg.Params.ElemBytes))
	a.lastCkpt = a.mach.Time()
	return true
}

// recoverCrash charges the restoration of a fail-stop processor that crashed
// at simulated time at. Every processor rolls back to the last checkpoint
// and re-executes the lost interval; the restarted processor additionally
// refetches the state its mapping does not replicate: its partitions of
// distributed arrays and the live copies of aligned privatized scalars.
// Replicated copies — the paper's replication mapping — restore locally at
// zero communication cost, which is the robustness dividend of that mapping
// choice.
func (a *Accountant) recoverCrash(c fault.Crash, at float64) {
	lost := at - a.lastCkpt
	if lost < 0 {
		lost = 0
	}
	bytes, msgs := eval.RefetchCost(a.st, c.Proc, a.cfg.Params.ElemBytes)
	a.mach.Recover(c.Proc, lost, bytes, msgs)
	// Recovery reestablishes a consistent global state.
	a.lastCkpt = a.mach.Time()
}

// Heal charges the recovery of a crash that fired outside a Site, at
// simulated time at, and marks it fired so the restored run does not fire
// it again.
func (a *Accountant) Heal(c fault.Crash, at float64) {
	a.inj.Consume(c)
	a.recoverCrash(c, at)
}

// AccountantState is a saved copy of an accountant's mutable state.
type AccountantState struct {
	mach     machine.State
	inj      *fault.Injector
	lastCkpt float64
}

// Save captures the accountant's state: clocks, statistics, the injector's
// draw position and the checkpoint schedule.
func (a *Accountant) Save() AccountantState {
	return AccountantState{mach: a.mach.SaveState(), inj: a.inj.Clone(), lastCkpt: a.lastCkpt}
}

// Restore rewinds the accountant to a saved state (which stays reusable).
func (a *Accountant) Restore(s AccountantState) {
	a.mach.RestoreState(s.mach)
	a.inj = s.inj.Clone()
	a.mach.Fault = a.inj
	a.lastCkpt = s.lastCkpt
}

// ---------------------------------------------------------------------------
// Profile

// begin opens st's attribution window unless profiling is off or a window
// is already open.
func (a *Accountant) begin(st *ir.Stmt, hoisted bool) {
	if a.profile == nil || a.open != nil {
		return
	}
	a.open, a.openHoisted, a.before = st, hoisted, a.clockSum()
}

// end charges the clock advance since begin to the open window's statement.
func (a *Accountant) end() {
	if a.open == nil {
		return
	}
	p := a.profile[a.open]
	if p == nil {
		p = &StmtProfile{Stmt: a.open}
		a.profile[a.open] = p
	}
	p.Instances++
	p.Seconds += a.clockSum() - a.before
	a.open, a.openHoisted = nil, false
}

// clockSum is the total of all processor clocks (used to attribute time).
func (a *Accountant) clockSum() float64 {
	s := 0.0
	for _, c := range a.mach.Clock {
		s += c
	}
	return s
}

// Profile closes any window an abort left open and returns the
// per-statement attribution sorted by descending Seconds (nil when
// profiling is off).
func (a *Accountant) Profile() []StmtProfile {
	a.end()
	var out []StmtProfile
	for _, sp := range a.profile {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Stmt.ID < out[j].Stmt.ID
	})
	return out
}
