// The differential oracle: runs the same SPMD program through the
// sequential simulator and the concurrent executor and demands bit-for-bit
// agreement on every scalar, every array element, and the aggregate
// communication statistics. Because both backends share their entire
// interpretation core (internal/eval), any disagreement is a genuine bug in
// one backend's execution or accounting — the oracle is what makes the
// concurrent backend trustworthy and the simulator's cost model honest.
package exec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"

	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/fault"
	"phpf/internal/sim"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// Differ runs both backends and compares their results.
type Differ struct {
	// Sim configures the sequential reference run. Fault plans and
	// checkpoint intervals must not be set here directly — use the shared
	// Fault/CheckpointInterval fields below, which apply the identical
	// seeded plan to both backends (the only configuration under which
	// their fault accounting is comparable).
	Sim sim.Config
	// Exec configures the concurrent run. Its Fault/CheckpointInterval
	// must likewise be left to the shared fields; HardCrashes is rejected
	// outright (run-level heals re-execute wall intervals the simulator
	// never models twice).
	Exec Config
	// Trace, when non-nil, traces both runs and extends the comparison to
	// event-level agreement: per-communication-class message and byte
	// counts, the count of reduction events, and the fault, checkpoint, and
	// restart events per statement and class must match exactly.
	Trace *trace.Options

	// Fault, when non-nil and active, injects the same seeded fault plan
	// into both backends. Both charge the same seeded draws through the
	// same accountant, so modeled stats and fault events must agree
	// bitwise — which is exactly what the comparison then checks.
	Fault *fault.Plan
	// CheckpointInterval, when > 0, enables coordinated checkpointing at
	// the same simulated-time interval in both backends.
	CheckpointInterval float64
	// Reduce selects the runtime reduction strategy, applied identically to
	// both backends (two runs under different strategies reassociate floating
	// point differently and are not comparable). Like Fault above, setting a
	// conflicting mode on a sub-config is rejected.
	Reduce core.ReduceMode
}

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	Sim  *sim.Result
	Exec *Result
	// Mismatches lists every disagreement found (empty = backends agree).
	Mismatches []string
}

// Match reports whether the two backends agreed exactly.
func (r *DiffReport) Match() bool { return len(r.Mismatches) == 0 }

func (r *DiffReport) String() string {
	if r.Match() {
		return fmt.Sprintf("backends agree (time %.6gs, %s)", r.Sim.Time, r.Sim.Stats.String())
	}
	s := fmt.Sprintf("%d mismatches:", len(r.Mismatches))
	for _, m := range r.Mismatches {
		s += "\n  " + m
	}
	return s
}

// Run executes the program on both backends and compares. An error means a
// backend failed to run (or the configuration is unusable for differential
// testing); a completed report with mismatches means the backends disagree.
func (d Differ) Run(ctx context.Context, p *spmd.Program) (*DiffReport, error) {
	if d.Sim.Fault.Active() && !plansEqual(d.Sim.Fault, d.Fault) {
		return nil, &ConfigError{Msg: "differential oracle takes the fault plan via Differ.Fault (it must be identical for both backends)"}
	}
	if d.Exec.Fault.Active() && !plansEqual(d.Exec.Fault, d.Fault) {
		return nil, &ConfigError{Msg: "differential oracle takes the fault plan via Differ.Fault (it must be identical for both backends)"}
	}
	if d.Sim.CheckpointInterval > 0 && d.Sim.CheckpointInterval != d.CheckpointInterval {
		return nil, &ConfigError{Msg: "differential oracle takes the checkpoint interval via Differ.CheckpointInterval (it must be identical for both backends)"}
	}
	if d.Exec.CheckpointInterval > 0 && d.Exec.CheckpointInterval != d.CheckpointInterval {
		return nil, &ConfigError{Msg: "differential oracle takes the checkpoint interval via Differ.CheckpointInterval (it must be identical for both backends)"}
	}
	if d.Exec.HardCrashes {
		return nil, &ConfigError{Msg: "differential oracle cannot compare HardCrashes runs (run-level heals re-execute intervals the simulator models once)"}
	}
	if (d.Sim.Reduce != core.ReduceAuto && d.Sim.Reduce != d.Reduce) ||
		(d.Exec.Reduce != core.ReduceAuto && d.Exec.Reduce != d.Reduce) {
		return nil, &ConfigError{Msg: "differential oracle takes the reduce mode via Differ.Reduce (it must be identical for both backends)"}
	}
	d.Sim.Fault = d.Fault
	d.Exec.Fault = d.Fault
	d.Sim.CheckpointInterval = d.CheckpointInterval
	d.Exec.CheckpointInterval = d.CheckpointInterval
	d.Sim.Reduce = d.Reduce
	d.Exec.Reduce = d.Reduce
	if d.Trace != nil {
		d.Sim.Trace = d.Trace
		d.Exec.Trace = d.Trace
	}
	simRes, err := sim.RunContext(ctx, p, d.Sim)
	if err != nil {
		return nil, fmt.Errorf("differ: %w", err)
	}
	if simRes.Aborted {
		return nil, &ConfigError{Msg: "differential oracle cannot compare an aborted simulator run (raise Sim.MaxSeconds)"}
	}
	execRes, err := Run(ctx, p, d.Exec)
	if err != nil {
		return nil, fmt.Errorf("differ: %w", err)
	}
	r := &DiffReport{Sim: simRes, Exec: execRes}
	r.compare()
	return r, nil
}

// compare fills Mismatches. Values are compared bitwise: the backends share
// the evaluation core, so even rounding must be identical.
func (r *DiffReport) compare() {
	miss := func(format string, args ...any) {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}

	var names []string
	for name := range r.Sim.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := r.Sim.Scalars[name]
		got, ok := r.Exec.Scalars[name]
		if !ok {
			miss("scalar %s: missing from concurrent result", name)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			miss("scalar %s: sim %v, exec %v", name, want, got)
		}
	}

	names = names[:0]
	for name := range r.Sim.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := r.Sim.Arrays[name]
		got, ok := r.Exec.Arrays[name]
		if !ok {
			miss("array %s: missing from concurrent result", name)
			continue
		}
		if len(got) != len(want) {
			miss("array %s: sim has %d elements, exec %d", name, len(want), len(got))
			continue
		}
		bad := 0
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				if bad == 0 {
					miss("array %s: first divergence at element %d: sim %v, exec %v",
						name, i, want[i], got[i])
				}
				bad++
			}
		}
		if bad > 1 {
			miss("array %s: %d diverging elements in total", name, bad)
		}
	}

	ss, es := r.Sim.Stats, r.Exec.Stats
	counters := []struct {
		name      string
		sim, exec int64
	}{
		{"messages", ss.Messages, es.Messages},
		{"bytes moved", ss.BytesMoved, es.BytesMoved},
		{"broadcasts", ss.Broadcasts, es.Broadcasts},
		{"shifts", ss.Shifts, es.Shifts},
		{"reductions", ss.Reductions, es.Reductions},
		{"merges", ss.Merges, es.Merges},
		{"point-to-point", ss.PointToPoint, es.PointToPoint},
		{"all-to-alls", ss.AllToAlls, es.AllToAlls},
		{"retransmits", ss.Retransmits, es.Retransmits},
		{"duplicates", ss.Duplicates, es.Duplicates},
		{"crashes", ss.Crashes, es.Crashes},
		{"checkpoints", ss.Checkpoints, es.Checkpoints},
		{"checkpoint bytes", ss.CheckpointBytes, es.CheckpointBytes},
		{"recovery bytes", ss.RecoveryBytes, es.RecoveryBytes},
		{"recovery messages", ss.RecoveryMessages, es.RecoveryMessages},
	}
	for _, c := range counters {
		if c.sim != c.exec {
			miss("stats %s: sim %d, exec %d", c.name, c.sim, c.exec)
		}
	}
	if math.Float64bits(r.Sim.Time) != math.Float64bits(r.Exec.Time) {
		miss("simulated time: sim %v, exec %v", r.Sim.Time, r.Exec.Time)
	}

	// Event-level agreement: when both runs were traced, the planned
	// communication each backend observed — split by class — must be
	// structurally identical, and so must the number of reduction
	// collectives. (Time stamps differ by construction: simulated vs wall.)
	if st, et := r.Sim.Trace, r.Exec.Trace; st.Enabled() && et.Enabled() {
		sc, ec := st.SendsByClass(), et.SendsByClass()
		for c := dist.CommNone; c <= dist.CommGeneral; c++ {
			s, e := sc[c], ec[c]
			if s != e {
				miss("trace class %s: sim %d msgs/%d bytes, exec %d msgs/%d bytes",
					c, s.Msgs, s.Bytes, e.Msgs, e.Bytes)
			}
		}
		if s, e := st.KindCount(trace.Reduce), et.KindCount(trace.Reduce); s != e {
			miss("trace reduce events: sim %d, exec %d", s, e)
		}
		if s, e := st.MergedCount(), et.MergedCount(); s != e {
			miss("trace merged partials: sim %d, exec %d", s, e)
		}
		// Fault-protocol events: both backends charge the same seeded draws
		// through the same accountant, so the events must coincide per
		// kind, statement and class.
		if s, e := st.FaultCounts(), et.FaultCounts(); !reflect.DeepEqual(s, e) {
			miss("trace fault events per (kind, stmt, class): sim %v, exec %v", s, e)
		}
	}
}

// plansEqual reports whether two fault plans describe the same injection
// (nil and inactive plans count as equal).
func plansEqual(a, b *fault.Plan) bool {
	if !a.Active() && !b.Active() {
		return true
	}
	if !a.Active() || !b.Active() {
		return false
	}
	if a.Seed != b.Seed || a.LossRate != b.LossRate || a.DupRate != b.DupRate ||
		a.RTO != b.RTO || len(a.Crashes) != len(b.Crashes) || len(a.Slowdowns) != len(b.Slowdowns) {
		return false
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			return false
		}
	}
	for i := range a.Slowdowns {
		if a.Slowdowns[i] != b.Slowdowns[i] {
			return false
		}
	}
	return true
}
