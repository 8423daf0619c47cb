// Package sim executes an SPMD program on the simulated machine. Statement
// instances are interpreted in sequential program order (valid because SPMD
// execution under owner-computes is sequentially consistent with the
// source); each instance advances the clocks of the processors in its
// execution set, per-instance communications synchronize sender and
// receivers, and vectorized communications are charged once per entry of
// their outermost hoisted loop. The program's values are computed for real,
// so results can be validated against sequential references — and the
// concurrent backend (internal/exec) is validated against this simulator by
// the differential oracle.
//
// The simulator is driver + accountant. The plan driver (eval.Driver)
// decides every operation of the plan and is shared with internal/exec;
// this package contributes the Accountant that charges those operations to
// the cost model, with fault injection, crash recovery, checkpointing, and
// the per-statement profile. The concurrent backend's charging workers feed
// the same Accountant.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"phpf/internal/core"
	"phpf/internal/eval"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// Config controls a simulation run.
type Config struct {
	Params machine.Params
	// MaxSeconds aborts the run once the simulated time exceeds this bound
	// (reproducing the paper's ">1 day, aborted" entries). Zero disables.
	MaxSeconds float64
	// Profile collects per-statement simulated-time attribution (compute
	// and communication charged while executing each statement).
	Profile bool
	// Fault, when non-nil and active, injects message loss/duplication,
	// compute slowdowns, and fail-stop crashes (see internal/fault). A nil
	// or inactive plan leaves the fault-free arithmetic bit-identical.
	Fault *fault.Plan
	// CheckpointInterval takes a coordinated checkpoint at
	// hoisted-communication boundaries whenever at least this much
	// simulated time has passed since the last one (0 = only the implicit
	// free checkpoint at t=0). Crash recovery rolls back to the last
	// checkpoint and re-executes the lost interval; the restarted
	// processor refetches aligned and partitioned state, while replicated
	// state restores locally.
	CheckpointInterval float64
	// Trace, when non-nil, records runtime events (stamped with simulated
	// time) into Result.Trace. Nil keeps the event path emission-free.
	Trace *trace.Options
	// MaxCells caps the total array cells of the memory image (0 =
	// unlimited; see eval.Budget). A breach fails the run with a coded
	// E006 diagnostic before the image is allocated.
	MaxCells int64
	// Reduce selects the runtime reduction strategy: ReduceAuto (default)
	// privatizes every reduction the reduceplan cleared, ReduceCollective
	// forces the §2.3 collective for all of them, and ReducePrivatize
	// demands privatization, failing the run (E005) if any recognized
	// reduction is collective-only.
	Reduce core.ReduceMode
}

// Validate rejects configurations that cannot describe a run on nprocs
// processors: a negative or non-finite time limit (zero means unlimited), a
// negative or non-finite checkpoint interval (zero means off), a negative
// cell budget, an unknown reduce mode, invalid machine parameters (a zero
// Params means SP2 and is accepted), a malformed fault plan, and crashes or
// slowdowns naming processors the run does not have. It is the one
// validator of the run-configuration fields both backends consume.
func (c Config) Validate(nprocs int) error {
	for _, f := range []struct {
		name string
		v    float64
		zero string
	}{
		{"MaxSeconds", c.MaxSeconds, "unlimited"},
		{"CheckpointInterval", c.CheckpointInterval, "off"},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be finite, got %v", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0 (0 = %s), got %v", f.name, f.zero, f.v)
		}
	}
	if c.MaxCells < 0 {
		return fmt.Errorf("MaxCells must be >= 0 (0 = unlimited), got %v", c.MaxCells)
	}
	if c.Reduce < core.ReduceAuto || c.Reduce > core.ReducePrivatize {
		return fmt.Errorf("unknown Reduce mode %d", int(c.Reduce))
	}
	if c.Params != (machine.Params{}) {
		if err := c.Params.Validate(); err != nil {
			return err
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.Fault.Active() {
		for _, cr := range c.Fault.Crashes {
			if cr.Proc >= nprocs {
				return fmt.Errorf("crash of processor %d, but the machine has %d", cr.Proc, nprocs)
			}
		}
		for _, sl := range c.Fault.Slowdowns {
			if sl.Proc >= nprocs {
				return fmt.Errorf("slowdown of processor %d, but the machine has %d", sl.Proc, nprocs)
			}
		}
	}
	return nil
}

// StmtProfile is one statement's share of the simulated activity.
type StmtProfile struct {
	Stmt *ir.Stmt
	// Instances is how many times the statement executed.
	Instances int64
	// Seconds is the total clock advance attributed to the statement
	// (summed over processors).
	Seconds float64
}

// Result is the outcome of one run.
type Result struct {
	Time    float64
	Stats   machine.Stats
	Aborted bool

	// Final memory, for validation against reference implementations.
	Scalars map[string]float64
	Arrays  map[string][]float64

	// Profile holds per-statement attribution when Config.Profile was set,
	// sorted by descending Seconds.
	Profile []StmtProfile

	// Trace holds the recorded event stream when Config.Trace was set
	// (nil otherwise). The simulator emits into a single shard, so
	// Trace.Events() is the exact deterministic program-order stream.
	Trace *trace.Recorder
}

// errAbort signals the MaxSeconds cutoff internally.
type errAbort struct{}

func (errAbort) Error() string { return "simulated time limit exceeded" }

// RunContext executes the program with cfg under a context: cancellation
// aborts the simulation between events (at iteration and communication
// boundaries) and returns ctx.Err().
func RunContext(ctx context.Context, p *spmd.Program, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: nil program")
	}
	if cfg.Params == (machine.Params{}) {
		cfg.Params = machine.SP2()
	}
	if err := cfg.Validate(p.NProcs()); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	st, err := eval.NewStateBudget(p, eval.Budget{MaxCells: cfg.MaxCells})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := st.ConfigureReduce(cfg.Reduce, eval.Budget{MaxCells: cfg.MaxCells}); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	acct := NewAccountant(ctx, st, cfg)
	if cfg.Trace != nil {
		rec := trace.New(p.NProcs(), 1, *cfg.Trace)
		rec.SetLabels(p.StmtLabels())
		acct.Machine().Rec = rec
	}
	err = eval.Walk(st, eval.NewDriver(st, acct, cfg.Params))
	aborted := false
	if err != nil {
		switch {
		case errors.Is(err, errAbort{}):
			aborted = true
		case errors.Is(err, ctx.Err()) && ctx.Err() != nil:
			return nil, err
		default:
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	m := acct.Machine()
	res := &Result{
		Time:    m.Time(),
		Stats:   m.Stats,
		Aborted: aborted,
		Scalars: map[string]float64{},
		Arrays:  map[string][]float64{},
		Profile: acct.Profile(),
		Trace:   m.Rec,
	}
	for v, x := range st.Scalars() {
		res.Scalars[v.Name] = x
	}
	for v, a := range st.Arrays() {
		res.Arrays[v.Name] = a
	}
	return res, nil
}
