// Chaos mode: wall-clock fault tolerance for the concurrent backend.
//
// When the run has an active fault plan or a checkpoint interval, every
// worker feeds its own accountant (sim.Accountant) with its own seeded
// injector. Every worker's plan driver emits the simulator's operation
// sequence, so modeled Stats, simulated Time, and fault events agree with
// sim bitwise by construction (the differential oracle demands exactly
// that).
//
// Crash recovery has two paths. On the default, coordinated path a
// scheduled fail-stop crash fires at the same crash-check site on every
// worker (same injector, same draw); each worker's accountant charges the
// recovery, the worker restores its own memory from the last coordinated
// checkpoint snapshot, physically refetches the crashed processor's
// non-replicated state from a survivor, and re-executes the lost interval
// with accounting and tracing suppressed — so the final cost model never
// double-charges. The hard path (Config.HardCrashes, real panics, stalls)
// kills the worker set for real and heals at the run level: Run restores
// all workers from executor-held snapshots of the last complete checkpoint
// generation and re-spawns them with fresh transport.
package exec

import (
	"errors"
	"fmt"
	"math"

	"phpf/internal/eval"
	"phpf/internal/fault"
	"phpf/internal/sim"
)

// workerSnap is one worker's published checkpoint: everything needed to
// rebuild the worker at that boundary. The memory snapshot serves the
// coordinated in-band restore; the rest (sequence counters, accountant
// state) serves the run-level heal, which rebuilds transport from scratch.
type workerSnap struct {
	gen     int64
	state   *eval.Snapshot
	cursor  eval.Cursor
	sendSeq []uint64
	recvSeq []uint64
	acct    sim.AccountantState
	valid   bool
}

// crashSignal unwinds a worker's walk when scheduled fail-stop crashes fire
// at a crash-check site (coordinated path). Every worker returns the same
// signal at the same site; the driver loop in runChaosWorker restores and
// resumes.
type crashSignal struct {
	crashes []fault.Crash
	target  int64 // site counter at the crash: replay suppression lifts here
}

func (c *crashSignal) Error() string {
	return fmt.Sprintf("exec: %d scheduled crash(es) fired", len(c.crashes))
}

// failStop is the panic value of a hard scheduled crash: the worker dies
// mid-protocol and the run-level heal recovers.
type failStop struct {
	crash fault.Crash
	at    float64 // simulated time when the crash fired
}

// healState is the plan for one run-level heal: a complete snapshot
// generation, plus the crash to account and refetch (nil for stalls and
// real panics with no modeled crash time).
type healState struct {
	snaps []workerSnap
	crash *fault.Crash
	at    float64 // simulated time of the crash (0: no lost work)
}

// heal rewinds every worker to the heal's checkpoint generation and, for a
// crash, charges its recovery on every accountant (marking it fired so it
// cannot refire) and schedules the physical refetch at worker start. It
// runs on Run's goroutine before workers spawn, so worker 0's shard-0 trace
// emission from the recovery charge is race-free.
func (ex *executor) heal(workers []*worker, h *healState) {
	for p, w := range workers {
		snap := h.snaps[p]
		w.acct.Restore(snap.acct)
		w.gen = snap.gen
		copy(w.sendSeq, snap.sendSeq)
		copy(w.recvSeq, snap.recvSeq)
		cur := snap.cursor
		w.resume = &cur
		// Re-seed the published snapshots so a second failure before the
		// next checkpoint can heal from the same generation.
		ex.snaps[p] = snap
		ex.prevSnaps[p] = workerSnap{}
		if h.crash != nil {
			w.acct.Heal(*h.crash, h.at)
			w.healCrash = h.crash
		}
	}
}

// runChaosWorker is the chaos-mode worker driver: a tracked walk wrapped in
// the coordinated restore loop.
func (ex *executor) runChaosWorker(w *worker) error {
	if w.resume == nil {
		// The program start is a free, trivially consistent checkpoint:
		// gen 1 with a zero cursor (resume from the top).
		w.takeSnapshot()
	} else if w.healCrash != nil {
		c := *w.healCrash
		w.healCrash = nil
		if err := w.refetchAll([]fault.Crash{c}); err != nil {
			return err
		}
	}
	cur := w.resume
	w.resume = nil
	for {
		err := eval.WalkResume(w.st, w.drv, cur)
		if err == nil {
			// Drain any message batch left open by trailing statements.
			err = w.flushBatch()
		}
		var cs *crashSignal
		if !errors.As(err, &cs) {
			return err
		}
		// Coordinated restore: every worker caught the same signal at the
		// same site. Memory rolls back to the last checkpoint; the
		// accountant does NOT (it charged the recovery, and replay
		// suppression keeps its draw stream aligned); sequence counters roll
		// forward so re-executed sends get fresh, consistent numbers on
		// every edge.
		snap := ex.snaps[w.proc]
		w.st.Restore(snap.state)
		w.batch = openBatch{}
		w.replay = true
		w.replayTarget = cs.target
		w.sites = 0
		if w.proc == 0 {
			ex.softRestarts += int64(len(cs.crashes))
		}
		if err := w.refetchAll(cs.crashes); err != nil {
			return err
		}
		c2 := snap.cursor
		cur = &c2
	}
}

// Site is one crash-check site. Outside chaos mode nothing can fire (and
// Tick already enforces cancellation). During replay it only advances the
// site counter, lifting suppression at the recorded crash site; otherwise
// the accountant fires the crashes now due, and a recovered crash unwinds
// the walk for the coordinated restore.
func (w *worker) Site() error {
	if !w.ex.chaos {
		return nil
	}
	w.sites++
	if w.replay {
		if w.sites >= w.replayTarget {
			w.replay = false
		}
		return nil
	}
	if w.ex.cfg.HardCrashes {
		// The doomed worker dies mid-protocol; peers let its panic tear the
		// attempt down, and the run-level heal restores everyone (their
		// injectors are rebuilt from the snapshot, so firing here is safe).
		for c := w.acct.PendingCrash(); c != nil; c = w.acct.PendingCrash() {
			if c.Proc == w.proc {
				panic(&failStop{crash: *c, at: w.acct.Machine().Time()})
			}
		}
	}
	if err := w.acct.Site(); err != nil {
		return err
	}
	if crashed := w.acct.Crashed(); len(crashed) > 0 {
		return &crashSignal{crashes: append([]fault.Crash(nil), crashed...), target: w.sites}
	}
	return nil
}

// checkpoint completes a coordinated checkpoint the accountant took at a
// loop-entry boundary: it synchronizes all workers with a real barrier and
// publishes a snapshot. The accountant takes none during replay: by
// definition no checkpoint fired between the restored checkpoint and the
// crash, so none may fire during re-execution either.
func (w *worker) checkpoint() error {
	// The barrier before the snapshot bounds generation skew to one: a
	// worker publishing gen k+1 proves every worker reached this boundary,
	// so all hold at least gen k — the run-level heal relies on that.
	if err := w.starBarrier(tagCkpt, tagCkptRelease, "checkpoint"); err != nil {
		return err
	}
	w.takeSnapshot()
	w.sites = 0
	return nil
}

// takeSnapshot publishes this worker's next checkpoint generation. The
// worker writes only its own slot; Run reads the slots after the workers
// join, so the accesses are ordered by the WaitGroup.
func (w *worker) takeSnapshot() {
	cur, _ := w.st.Cursor() // zero cursor (resume from start) outside LoopEntry
	w.gen++
	snap := workerSnap{
		gen:     w.gen,
		state:   w.st.Snapshot(),
		cursor:  cur,
		sendSeq: append([]uint64(nil), w.sendSeq...),
		recvSeq: append([]uint64(nil), w.recvSeq...),
		acct:    w.acct.Save(),
		valid:   true,
	}
	w.ex.prevSnaps[w.proc] = w.ex.snaps[w.proc]
	w.ex.snaps[w.proc] = snap
}

// refetchAll performs the physical recovery refetch: for each crashed
// processor, the lowest surviving worker streams that processor's
// non-replicated state — one message per eval.RefetchItem, exactly the
// modeled RecoveryMessages — carrying the element count and a checksum the
// restarted worker verifies against its restored image.
func (w *worker) refetchAll(crashes []fault.Crash) error {
	crashed := make(map[int]bool, len(crashes))
	for _, c := range crashes {
		crashed[c.Proc] = true
	}
	src := -1
	for p := 0; p < w.ex.n; p++ {
		if !crashed[p] {
			src = p
			break
		}
	}
	if src < 0 {
		return nil // everyone crashed: the local restores are all there is
	}
	for _, c := range crashes {
		if w.proc != src && w.proc != c.Proc {
			continue
		}
		items := eval.RefetchItems(w.st, c.Proc, w.elemBytes())
		what := fmt.Sprintf("recovery refetch for p%d", c.Proc)
		for _, it := range items {
			sum := w.itemSum(it)
			if w.proc == src {
				m := message{req: tagRefetch, count: int32(it.Elems), hasVal: true, bits: sum}
				if err := w.send(c.Proc, m, what); err != nil {
					return err
				}
				continue
			}
			got, err := w.recv(src, tagRefetch, what)
			if err != nil {
				return err
			}
			if int64(got.count) != it.Elems {
				return &DivergenceError{Proc: w.proc, Peer: src,
					What: what + ": " + it.Var.Name + " (element count)",
					Got:  float64(got.count), Want: float64(it.Elems)}
			}
			if got.hasVal && got.bits != sum {
				return &DivergenceError{Proc: w.proc, Peer: src,
					What: what + ": " + it.Var.Name + " (checksum)",
					Got:  math.Float64frombits(got.bits), Want: math.Float64frombits(sum)}
			}
		}
	}
	return nil
}

// itemSum folds one refetch item's current local value into a checksum:
// the full array image for arrays (identical on both sides under
// replicated execution), the scalar's bit pattern otherwise.
func (w *worker) itemSum(it eval.RefetchItem) uint64 {
	sum := uint64(fnvOffset)
	if it.Var.IsArray() {
		for _, x := range w.st.Array(it.Var) {
			sum = fnvAdd(sum, math.Float64bits(x))
		}
		return sum
	}
	return fnvAdd(sum, math.Float64bits(w.st.Scalar(it.Var)))
}

// healable reports whether a run-level heal can answer this error: worker
// deaths (panics, hard crashes) and stalls — not divergence or protocol
// violations, which a retry would only mask.
func healable(err error) bool {
	var we *WorkerError
	var se *StallError
	return errors.As(err, &we) || errors.As(err, &se)
}

// buildHeal assembles the restore plan for a run-level heal: the newest
// checkpoint generation every worker holds (the checkpoint barrier bounds
// skew to one, so it is the minimum of the latest generations), plus the
// crash to account when the failure was a scheduled fail-stop.
func (ex *executor) buildHeal(err error) *healState {
	g := int64(math.MaxInt64)
	for i := range ex.snaps {
		if !ex.snaps[i].valid {
			return nil
		}
		if ex.snaps[i].gen < g {
			g = ex.snaps[i].gen
		}
	}
	snaps := make([]workerSnap, ex.n)
	for i := range snaps {
		switch {
		case ex.snaps[i].gen == g:
			snaps[i] = ex.snaps[i]
		case ex.prevSnaps[i].valid && ex.prevSnaps[i].gen == g:
			snaps[i] = ex.prevSnaps[i]
		default:
			return nil
		}
	}
	h := &healState{snaps: snaps}
	var we *WorkerError
	if errors.As(err, &we) {
		if fs, ok := we.PanicValue.(*failStop); ok {
			h.crash = &fs.crash
			h.at = fs.at
		} else {
			// A real panic has no modeled crash time: account a crash of
			// that processor with no lost-work charge beyond the refetch.
			h.crash = &fault.Crash{Proc: we.Proc}
		}
	}
	return h
}

// checkMachineAgreement verifies every worker's accountant agrees bitwise
// with worker 0's — the chaos-mode analogue of the memory consistency sweep
// (identical accounts prove the replicated fault draws never diverged).
func (ex *executor) checkMachineAgreement(workers []*worker) error {
	if !ex.chaos {
		return nil
	}
	ref := workers[0].acct.Machine()
	for p := 1; p < len(workers); p++ {
		m := workers[p].acct.Machine()
		if math.Float64bits(m.Time()) != math.Float64bits(ref.Time()) {
			return &DivergenceError{Proc: p, Peer: 0, What: "accounted simulated time",
				Got: m.Time(), Want: ref.Time()}
		}
		if m.Stats != ref.Stats {
			return &DivergenceError{Proc: p, Peer: 0, What: "accounted cost-model statistics",
				Got: float64(m.Stats.Messages), Want: float64(ref.Stats.Messages)}
		}
	}
	return nil
}
