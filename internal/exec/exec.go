// Package exec is the concurrent SPMD execution backend: one goroutine per
// simulated processor runs the planned SPMD program for real, exchanging
// messages over channel-based bounded mailboxes wherever the communication
// plan (comm.Requirement) says data must move.
//
// Each worker is driver + transport. The plan driver (eval.Driver) is the
// same one the simulator runs: it decides every operation of the plan —
// hoisted and per-instance transfers, combines, copy-outs,
// redistributions, checkpoint boundaries, crash-check sites — and hands
// each to the worker, whose transport performs the matching real traffic.
// A charging worker (worker 0, or every worker in chaos mode) first feeds
// the operation to its own sim.Accountant, the simulator's cost model, so
// the run's Time and Stats are the simulator's by construction and the
// differential oracle (Differ) can demand bit-for-bit agreement. Each
// accountant is owned by its worker's goroutine, so accounting needs no
// locking; the real channel traffic is verified independently, through
// per-edge sequence numbers, requirement tags, and the watchdog.
//
// Execution is replicated: every worker interprets the full program over its
// own memory image, exactly as the simulator interprets it over its single
// global image, so all workers make identical control-flow and
// communication decisions in the same order (the property that makes the
// rendezvous below deadlock-free). Messages carry the communicated value so
// receivers verify, bitwise, that the replicated images have not diverged;
// a final cross-worker sweep verifies complete memory agreement.
//
// The transport vectorizes: contiguous per-instance element transfers for
// one (source, destination, statement) — the inner-loop pattern the
// paper's message vectorization targets — coalesce into a single batched
// mailbox message carrying the element count and a checksum of the batched
// values, flushed whenever the batch key changes or other planned traffic
// must flow. The accountant still charges every instance, and a flushed
// batch emits one trace event that stands for Count messages.
//
// Robustness: a worker panic is contained and surfaced as *WorkerError
// with the process intact; a wedged worker set is detected by the stall
// watchdog and reported as *StallError naming the blocked operations; and
// cancellation or deadline on the caller's context unwinds every worker
// (replacing the simulator's simulated-time cutoff with real wall-clock
// enforcement).
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"phpf/internal/comm"
	"phpf/internal/core"
	"phpf/internal/dist"
	"phpf/internal/eval"
	"phpf/internal/fault"
	"phpf/internal/ir"
	"phpf/internal/machine"
	"phpf/internal/sim"
	"phpf/internal/spmd"
	"phpf/internal/trace"
)

// DefaultMailboxDepth is the default bound of each directed mailbox.
const DefaultMailboxDepth = 64

// DefaultStallTimeout is the default quiet period after which the watchdog
// declares the worker set stalled.
const DefaultStallTimeout = 10 * time.Second

// Config controls a concurrent run. Params, Fault, CheckpointInterval,
// MaxCells and Reduce configure the accountant exactly as in sim.Config and
// are validated by sim.Config.Validate.
type Config struct {
	Params machine.Params
	// Workers is the requested worker count. The SPMD program is planned
	// for exactly NProcs processors and every planned rendezvous names
	// concrete processor pairs, so the only valid values are 0 (meaning
	// NProcs) and NProcs itself; anything else is a ConfigError rather
	// than a deadlock at the first unmatched send.
	Workers int
	// MailboxDepth bounds each directed mailbox (0 = DefaultMailboxDepth;
	// must be at least 1 so self-sends and ring shifts cannot wedge).
	MailboxDepth int
	// StallTimeout is how long the watchdog waits without any worker
	// progress before declaring a stall (0 = DefaultStallTimeout,
	// negative = watchdog disabled).
	StallTimeout time.Duration
	// Trace, when non-nil, records runtime events (stamped with wall time
	// since run start) into Result.Trace; each worker emits into its own
	// shard, so tracing adds no locking to the hot path and is race-free.
	// Nil keeps the event path emission-free.
	Trace *trace.Options

	// Fault, when active, also acts on the wire: keyed
	// per-(src,dst,seq,attempt) draws drop or duplicate real mailbox
	// transmissions, healed by an ack/retransmit protocol with exponential
	// backoff — reproducible for a fixed seed regardless of goroutine
	// interleaving — and slowdowns delay real senders.
	Fault *fault.Plan
	// CheckpointInterval > 0 makes each checkpoint the accountants take a
	// barrier-aligned dense snapshot of every worker's eval.State.
	CheckpointInterval float64
	// MaxRestarts bounds run-level heals: full restarts from the last
	// complete checkpoint after a real worker panic or a watchdog-detected
	// stall. 0 means DefaultMaxRestarts; negative disables healing.
	MaxRestarts int
	// MaxCells caps each worker's memory image. Every worker holds a full
	// replicated image, so a run's worst-case footprint is
	// MaxCells × 8 bytes × workers.
	MaxCells int64
	Reduce   core.ReduceMode
	// HardCrashes makes scheduled fail-stop crashes kill the worker
	// goroutine for real (a panic unwinds it mid-protocol) instead of the
	// default coordinated unwind. Recovery then goes through the run-level
	// heal path: crash detection by cancellation/watchdog, restore of all
	// workers from executor-held snapshots, re-spawn with refetch. Wall
	// traces then legitimately double-cover the re-executed interval, so
	// the differential oracle rejects this mode.
	HardCrashes bool

	// Test hooks (package-internal): testDropSend suppresses a worker's
	// sends for a requirement, wedging its receivers on purpose; testHook
	// runs at every loop-iteration tick; testDelayUnit overrides the wall
	// time one slowdown unit costs a sender.
	testDropSend  func(proc int, req *comm.Requirement) bool
	testHook      func(proc int) error
	testDelayUnit time.Duration
}

// simConfig is the part of the configuration the accountant consumes.
func (c Config) simConfig() sim.Config {
	return sim.Config{Params: c.Params, Fault: c.Fault, CheckpointInterval: c.CheckpointInterval,
		MaxCells: c.MaxCells, Reduce: c.Reduce}
}

// DefaultMaxRestarts is the default bound on run-level heals.
const DefaultMaxRestarts = 3

// Result is the outcome of a concurrent run.
type Result struct {
	// Time and Stats are worker 0's accountant's cost model — identical to
	// the sequential simulator's for the same configuration, unless a
	// run-level heal re-executed an interval.
	Time  float64
	Stats machine.Stats

	// Final memory (verified identical across all workers).
	Scalars map[string]float64
	Arrays  map[string][]float64

	// Workers is the number of worker goroutines that ran.
	Workers int
	// TrafficMessages counts the real channel messages exchanged (the
	// physical rendezvous, not the cost model's modeled message count).
	TrafficMessages int64

	// Trace holds the recorded event stream when Config.Trace was set
	// (nil otherwise). Events are stamped with wall time; per-class counts
	// of planned communication match the simulator's trace exactly, which
	// the differential oracle verifies.
	Trace *trace.Recorder

	// Restarts counts coordinated checkpoint restores: fail-stop crashes
	// recovered in-band by rolling every worker back to the last snapshot
	// and re-executing with accounting suppressed.
	Restarts int64
	// HardRestarts counts run-level heals (panic or stall recoveries that
	// rebuilt the worker set from executor-held snapshots).
	HardRestarts int
	// Wire-layer fault activity: real transmissions dropped by the seeded
	// injector, retransmissions after RTO expiry, duplicates put on the
	// wire, and duplicates suppressed by sequence number at the receiver.
	// These count physical events; the modeled fault counters live in
	// Stats, where the differential oracle compares them against sim.
	WireDrops         int64
	WireRetransmits   int64
	WireDuplicates    int64
	WireDupSuppressed int64
}

// message is one mailbox entry. Each directed edge carries an independent
// sequence number; receivers verify both the tag and the sequence, so any
// divergence in the workers' planned event order is a ProtocolError, not a
// silent mismatch.
type message struct {
	req    int    // comm.Requirement ID, or a negative protocol tag
	seq    uint64 // per-edge sequence number
	bits   uint64 // math.Float64bits of the payload, or a batch checksum
	count  int32  // batched element count (0 or 1 = a single element)
	hasVal bool
}

// Protocol tags for traffic that does not belong to a planned requirement.
const (
	tagReduce       = -2  // member -> root partial-value message
	tagReduceResult = -3  // root -> member combined-result message
	tagBarrier      = -4  // member -> coordinator redistribution barrier
	tagRelease      = -5  // coordinator -> member barrier release
	tagCkpt         = -6  // member -> coordinator checkpoint barrier
	tagCkptRelease  = -7  // coordinator -> member checkpoint release
	tagRefetch      = -8  // survivor -> restarted recovery refetch
	tagCopyOut      = -9  // lastprivate final-value broadcast, root -> member
	tagMerge        = -10 // privatized-reduction tree-merge hop, loser -> winner
)

type executor struct {
	prog   *spmd.Program
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	n      int
	depth  int

	// mail[from][to] is the bounded mailbox for one directed edge.
	mail [][]chan message
	// acct is worker 0's accountant: owned exclusively by its goroutine
	// while workers run, read by Run after they all finish.
	acct *sim.Accountant
	wd   *watchdog
	// reqDesc names each planned requirement for watchdog reports.
	reqDesc map[int]string

	// rec, when non-nil, receives wall-time events; start anchors the time
	// axis at run start.
	rec   *trace.Recorder
	start time.Time

	traffic atomic.Int64

	// Chaos mode (an active fault plan or a checkpoint interval): every
	// worker feeds its own accountant with its own seeded injector,
	// snapshots its state at coordinated checkpoints, and the wire layer
	// (when the plan has wire faults) drops, duplicates, and delays real
	// transmissions.
	chaos bool
	winj  *fault.WallInjector
	wire  *wireNet
	// snaps/prevSnaps hold each worker's last two published checkpoint
	// snapshots. A worker writes only its own slot; Run reads them after
	// the workers join (the WaitGroup orders the accesses).
	snaps     []workerSnap
	prevSnaps []workerSnap

	// softRestarts counts coordinated in-band restores (written by worker
	// 0's goroutine, read by Run after the join).
	softRestarts int64

	wireDrops    atomic.Int64
	wireRetrans  atomic.Int64
	wireDups     atomic.Int64
	wireDupSupp  atomic.Int64
	hardRestarts int
}

// wall is the run-relative wall clock in seconds.
func (ex *executor) wall() float64 { return time.Since(ex.start).Seconds() }

// Run executes the program concurrently. The context's cancellation or
// deadline aborts the run (every worker unwinds and the context error is
// returned); a nil ctx means context.Background().
func Run(ctx context.Context, p *spmd.Program, cfg Config) (*Result, error) {
	if p == nil {
		return nil, &ConfigError{Msg: "nil program"}
	}
	if cfg.Params == (machine.Params{}) {
		cfg.Params = machine.SP2()
	}
	n := p.NProcs()
	if err := cfg.simConfig().Validate(n); err != nil {
		return nil, &ConfigError{Msg: err.Error()}
	}
	if cfg.Workers != 0 && cfg.Workers != n {
		return nil, &ConfigError{Msg: fmt.Sprintf(
			"program is planned for %d processors; Workers must be 0 or %d, got %d (a smaller worker set would deadlock the planned rendezvous)",
			n, n, cfg.Workers)}
	}
	if cfg.MailboxDepth < 0 {
		return nil, &ConfigError{Msg: fmt.Sprintf("MailboxDepth must be >= 0 (0 = default %d), got %d", DefaultMailboxDepth, cfg.MailboxDepth)}
	}
	depth := cfg.MailboxDepth
	if depth == 0 {
		depth = DefaultMailboxDepth
	}
	stall := cfg.StallTimeout
	if stall == 0 {
		stall = DefaultStallTimeout
	}
	if ctx == nil {
		ctx = context.Background()
	}

	ex := &executor{
		prog:    p,
		cfg:     cfg,
		n:       n,
		depth:   depth,
		reqDesc: map[int]string{},
		chaos:   cfg.Fault.Active() || cfg.CheckpointInterval > 0,
	}
	for _, req := range p.Plan.Reqs {
		ex.reqDesc[req.ID] = req.String()
	}
	if cfg.Trace != nil {
		// One shard per worker: each goroutine owns its ring outright, so
		// emission is lock-free and the run stays race-free under -race.
		ex.rec = trace.New(n, n, *cfg.Trace)
		ex.rec.SetLabels(p.StmtLabels())
	}
	if ex.chaos {
		ex.winj = fault.NewWallInjector(cfg.Fault)
		if ex.winj != nil && cfg.testDelayUnit > 0 {
			ex.winj.DelayUnit = cfg.testDelayUnit
		}
		ex.snaps = make([]workerSnap, n)
		ex.prevSnaps = make([]workerSnap, n)
	}
	ex.start = time.Now()

	maxRestarts := cfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = DefaultMaxRestarts
	}
	if maxRestarts < 0 {
		maxRestarts = 0
	}

	// The attempt loop is the run-level heal path: a worker panic (a real
	// one, or a scheduled fail-stop under HardCrashes) or a watchdog stall
	// tears the whole worker set down; when a complete checkpoint
	// generation exists, the run restores every worker from it and
	// re-spawns with fresh transport. Coordinated (soft) crash recovery
	// never reaches this loop — workers restore in-band.
	var heal *healState
	for {
		res, err := ex.attempt(ctx, stall, heal)
		if err == nil {
			res.HardRestarts = ex.hardRestarts
			return res, nil
		}
		if !ex.chaos || ex.hardRestarts >= maxRestarts || ctx.Err() != nil || !healable(err) {
			return nil, err
		}
		h := ex.buildHeal(err)
		if h == nil {
			return nil, err
		}
		heal = h
		ex.hardRestarts++
	}
}

// attempt runs the worker set once: from program start when heal is nil,
// else from the heal's checkpoint snapshots.
func (ex *executor) attempt(ctx context.Context, stall time.Duration, heal *healState) (*Result, error) {
	n := ex.n
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ex.ctx, ex.cancel = cctx, cancel
	ex.wd = newWatchdog(n)
	ex.mail = make([][]chan message, n)
	for i := range ex.mail {
		ex.mail[i] = make([]chan message, n)
		for j := range ex.mail[i] {
			ex.mail[i][j] = make(chan message, ex.depth)
		}
	}
	states := make([]*eval.State, n)
	for i := range states {
		st, err := eval.NewStateBudget(ex.prog, eval.Budget{MaxCells: ex.cfg.MaxCells})
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		// Arm the partial tables before any Restore: heal snapshots carry
		// in-flight private partials and restore into the armed tables.
		if err := st.ConfigureReduce(ex.cfg.Reduce, eval.Budget{MaxCells: ex.cfg.MaxCells}); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		if heal != nil {
			st.Restore(heal.snaps[i].state)
		}
		states[i] = st
	}
	workers := make([]*worker, n)
	for i := range workers {
		w := &worker{
			ex:       ex,
			proc:     i,
			st:       states[i],
			sendSeq:  make([]uint64, n),
			recvSeq:  make([]uint64, n),
			attrStmt: -1,
		}
		if i == 0 || ex.chaos {
			w.acct = sim.NewAccountant(cctx, states[i], ex.cfg.simConfig())
		}
		w.drv = eval.NewDriver(states[i], w, ex.cfg.Params)
		workers[i] = w
	}
	ex.acct = workers[0].acct
	if ex.rec != nil && ex.chaos {
		// Worker 0's accountant contributes the fault-protocol events
		// (checkpoint/restart/fault; only chaos runs have any) stamped with
		// wall time; everything else the workers emit themselves from real
		// activity, so nothing is double-counted.
		m := ex.acct.Machine()
		m.Rec = ex.rec
		m.FaultEventsOnly = true
		m.Now = ex.wall
	}
	if heal != nil {
		ex.heal(workers, heal)
	}
	if ex.winj != nil {
		ex.wire = newWireNet(ex, workers)
	}

	if stall > 0 {
		go ex.wd.watch(cctx, stall, cancel)
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			defer ex.wd.finish(proc)
			defer func() {
				if r := recover(); r != nil {
					errs[proc] = &WorkerError{Proc: proc, PanicValue: r, Stack: string(debug.Stack())}
					cancel()
				}
			}()
			if err := ex.runWorker(workers[proc]); err != nil {
				errs[proc] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	ex.wd.stop()
	cancel()
	if ex.wire != nil {
		ex.wire.wg.Wait()
		ex.wire = nil
	}

	if se := ex.wd.stallError(); se != nil {
		return nil, se
	}
	if err := pickError(errs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if err := checkConsistency(states); err != nil {
		return nil, err
	}
	if err := ex.checkMachineAgreement(workers); err != nil {
		return nil, err
	}

	res := &Result{
		Time:            ex.acct.Machine().Time(),
		Stats:           ex.acct.Machine().Stats,
		Scalars:         map[string]float64{},
		Arrays:          map[string][]float64{},
		Workers:         n,
		TrafficMessages: ex.traffic.Load(),
		Trace:           ex.rec,

		Restarts:          ex.softRestarts,
		WireDrops:         ex.wireDrops.Load(),
		WireRetransmits:   ex.wireRetrans.Load(),
		WireDuplicates:    ex.wireDups.Load(),
		WireDupSuppressed: ex.wireDupSupp.Load(),
	}
	for v, x := range states[0].Scalars() {
		res.Scalars[v.Name] = x
	}
	for v, a := range states[0].Arrays() {
		res.Arrays[v.Name] = a
	}
	return res, nil
}

// runWorker drives one worker goroutine. Fault-free runs keep the original
// single-walk fast path; chaos mode runs the tracked walk with coordinated
// crash recovery around it (see chaos.go).
func (ex *executor) runWorker(w *worker) error {
	if !ex.chaos {
		err := eval.Walk(w.st, w.drv)
		if err == nil {
			// Drain any message batch left open by trailing statements.
			err = w.flushBatch()
		}
		return err
	}
	return ex.runChaosWorker(w)
}

// pickError selects the run's verdict from the per-worker errors: the first
// (lowest-processor) substantive error wins; context errors — which every
// other worker reports once the first failure cancels the run — are
// reported only when nothing better explains the failure.
func pickError(errs []error) error {
	var ctxErr error
	for proc, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		var ge *eval.GotoEscapeError
		if errors.As(err, &ge) {
			return fmt.Errorf("exec: goto %d escaped the program", ge.Label)
		}
		var we *WorkerError
		if errors.As(err, &we) {
			return we
		}
		return fmt.Errorf("exec: p%d: %w", proc, err)
	}
	if ctxErr != nil {
		return fmt.Errorf("exec: %w", ctxErr)
	}
	return nil
}

// checkConsistency verifies every worker's final memory image is bitwise
// identical to worker 0's — the replicated-execution invariant.
func checkConsistency(states []*eval.State) error {
	ref := states[0]
	for p := 1; p < len(states); p++ {
		st := states[p]
		for v, want := range ref.Scalars() {
			if got := st.Scalar(v); math.Float64bits(got) != math.Float64bits(want) {
				return &DivergenceError{Proc: p, Peer: 0, What: "final scalar " + v.Name, Got: got, Want: want}
			}
		}
		for v, want := range ref.Arrays() {
			got := st.Array(v)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return &DivergenceError{Proc: p, Peer: 0,
						What: fmt.Sprintf("final %s element %d", v.Name, i), Got: got[i], Want: want[i]}
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Worker

// worker is one simulated processor: the eval.Consumer of its own plan
// driver, performing the decided operations' real channel communication
// and, when it charges, feeding its accountant.
type worker struct {
	ex   *executor
	proc int
	st   *eval.State
	drv  *eval.Driver
	// sendSeq[to] / recvSeq[from] are the per-edge sequence counters.
	sendSeq, recvSeq []uint64

	// Trace attribution for the communication currently in flight: statement,
	// class, and per-message payload bytes (the requirement ID travels in the
	// message itself). mute suppresses emission for real traffic the cost
	// model does not charge (e.g. ring slots of non-participants).
	attrStmt  int32
	attrClass dist.CommClass
	attrBytes int64
	mute      bool

	// batch is the single in-flight per-instance message batch (see
	// openBatch); count == 0 means no batch is open.
	batch openBatch

	// procs, srcProcs and rcvProcs are the transport's processor-list
	// buffers (ProcSet.AppendProcs), reused so enumerating a set allocates
	// nothing.
	procs, srcProcs, rcvProcs []int

	// acct is this worker's accountant. Fault-free runs give one to worker
	// 0 only; chaos mode gives every worker its own, so all replicated
	// accounts — including the seeded fault draws — can be cross-checked
	// after the run.
	acct *sim.Accountant
	// sites counts crash-check sites since the last checkpoint; it is the
	// replay-progress coordinate used to suppress re-execution side effects
	// exactly up to the crash point.
	sites int64
	// replay is true while re-executing the interval [checkpoint, crash]
	// after a coordinated restore: accounting, tracing, and checkpointing
	// are suppressed; real communication still flows (with fresh sequence
	// numbers, consistent across workers).
	replay       bool
	replayTarget int64
	// gen numbers this worker's published checkpoint snapshots.
	gen int64
	// healCrash, when set by a run-level heal, names the crashed processor
	// whose memory must be physically refetched at worker start.
	healCrash *fault.Crash
	// resume, when set by a run-level heal, is the checkpoint cursor the
	// worker's walk restarts from.
	resume *eval.Cursor
}

// setAttr stamps the attribution for the planned messages about to flow.
func (w *worker) setAttr(stmt int, class dist.CommClass, bytes int64) {
	w.attrStmt, w.attrClass, w.attrBytes = int32(stmt), class, bytes
}

// clearAttr resets the attribution to "none".
func (w *worker) clearAttr() {
	w.attrStmt, w.attrClass, w.attrBytes, w.mute = -1, dist.CommNone, 0, false
}

// emit records one event into this worker's shard (callers guard on
// w.ex.rec != nil).
func (w *worker) emit(k trace.Kind, peer int, dur float64, bytes int64, req int) {
	w.ex.rec.Emit(w.proc, trace.Event{
		Time: w.ex.wall(), Dur: dur, Bytes: bytes, Kind: k, Class: w.attrClass,
		Proc: int32(w.proc), Peer: int32(peer), Stmt: w.attrStmt, Req: int32(req),
	})
}

// emitN records one event standing for count planned messages (a flushed
// batch); the exact counters scale by count, keeping per-class totals
// identical to the simulator's per-instance emission.
func (w *worker) emitN(k trace.Kind, peer int, bytes int64, req int, count int32) {
	w.ex.rec.Emit(w.proc, trace.Event{
		Time: w.ex.wall(), Bytes: bytes, Kind: k, Class: w.attrClass,
		Proc: int32(w.proc), Peer: int32(peer), Stmt: w.attrStmt, Req: int32(req),
		Count: count,
	})
}

// elemBytes is the payload size of one element message.
func (w *worker) elemBytes() int64 { return int64(w.ex.cfg.Params.ElemBytes) }

// charges reports whether this worker feeds its accountant right now: it
// has one (worker 0 always; every worker in chaos mode) and is not
// re-executing an already-accounted interval after a restore.
func (w *worker) charges() bool { return w.acct != nil && !w.replay }

// traces reports whether this worker emits trace events right now (replay
// re-executes already-traced work, so emission is suppressed).
func (w *worker) traces() bool { return w.ex.rec != nil && !w.replay }

func (w *worker) desc(req *comm.Requirement) string { return w.ex.reqDesc[req.ID] }

// send delivers m on the edge proc->to, blocking when the mailbox is full.
// The blocked operation registers with the watchdog only after the
// non-blocking fast path fails.
func (w *worker) send(to int, m message, what string) error {
	m.seq = w.sendSeq[to]
	w.sendSeq[to]++
	if w.ex.wire != nil && to != w.proc {
		// Wire faults are live: route through the lossy link with its
		// ack/retransmit protocol. Self-sends stay on the direct edge — no
		// physical wire exists for them.
		return w.sendWire(to, m, what)
	}
	ch := w.ex.mail[w.proc][to]
	select {
	case ch <- m:
		w.ex.traffic.Add(1)
		w.ex.wd.tick()
		w.traceSend(to, m)
		return nil
	default:
	}
	h := w.ex.wd.block(w.proc, "send", to, what)
	defer w.ex.wd.unblock(h)
	blocked := w.ex.wall()
	select {
	case ch <- m:
		w.ex.traffic.Add(1)
		w.ex.wd.tick()
		if w.traces() {
			w.emit(trace.Wait, to, w.ex.wall()-blocked, 0, -1)
		}
		w.traceSend(to, m)
		return nil
	case <-w.ex.ctx.Done():
		return w.ex.ctx.Err()
	}
}

// traceSend records the departure of one planned message. Protocol traffic
// (negative tags: reduce gathers, barriers) is invisible to the cost model,
// so it is excluded — keeping Send/Recv counts structurally identical to the
// simulator's trace.
func (w *worker) traceSend(to int, m message) {
	if !w.traces() || m.req < 0 || w.mute {
		return
	}
	n := m.count
	if n <= 0 {
		n = 1
	}
	w.emitN(trace.Send, to, w.attrBytes*int64(n), m.req, n)
}

// recv takes the next message on the edge from->proc and verifies it
// matches the expected requirement tag and per-edge sequence number.
func (w *worker) recv(from, wantReq int, what string) (message, error) {
	ch := w.ex.mail[from][w.proc]
	var m message
	select {
	case m = <-ch:
	default:
		h := w.ex.wd.block(w.proc, "recv", from, what)
		blocked := w.ex.wall()
		select {
		case m = <-ch:
			w.ex.wd.unblock(h)
			if w.traces() {
				w.emit(trace.Wait, from, w.ex.wall()-blocked, 0, -1)
			}
		case <-w.ex.ctx.Done():
			w.ex.wd.unblock(h)
			return message{}, w.ex.ctx.Err()
		}
	}
	w.ex.wd.tick()
	wantSeq := w.recvSeq[from]
	w.recvSeq[from]++
	if m.req != wantReq || m.seq != wantSeq {
		return message{}, &ProtocolError{Proc: w.proc, From: from,
			WantReq: wantReq, GotReq: m.req, WantSeq: wantSeq, GotSeq: m.seq, What: what}
	}
	if w.traces() && m.req >= 0 && !w.mute {
		n := m.count
		if n <= 0 {
			n = 1
		}
		w.emitN(trace.Recv, from, w.attrBytes*int64(n), m.req, n)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// eval.Consumer: the worker's transport. Each method feeds the accountant
// first when this worker charges, then performs the operation's real
// traffic.

// Enter flushes the open batch and, at a boundary where the accountant
// takes a coordinated checkpoint, completes it (see checkpoint).
func (w *worker) Enter(boundary bool) error {
	// Any open batch flushes before other planned traffic so the per-edge
	// message order stays identical on every worker.
	if err := w.flushBatch(); err != nil {
		return err
	}
	if boundary && w.charges() && w.acct.TakeCheckpoint() {
		return w.checkpoint()
	}
	return nil
}

// Hoisted performs the real traffic of one hoisted requirement.
func (w *worker) Hoisted(req *comm.Requirement, op eval.VectorizedOp) error {
	if w.charges() {
		if err := w.acct.Hoisted(req, op); err != nil {
			return err
		}
	}
	if w.traces() {
		w.stampVectorized(req, op)
	}
	err := w.vectorizedComm(req, op)
	w.clearAttr()
	return err
}

// stampVectorized sets the trace attribution for one hoisted requirement's
// real traffic to the bytes the cost model charges per message; ring slots
// of shift non-participants are muted (the cost model does not charge them,
// and neither does the simulator's trace).
func (w *worker) stampVectorized(req *comm.Requirement, op eval.VectorizedOp) {
	switch op.Kind {
	case eval.VecShift:
		w.setAttr(req.Stmt.ID, req.Class, op.PerProc)
		w.mute = op.Participants.Count() < 2 || !op.Participants.Contains(w.proc)
	case eval.VecBcast:
		w.setAttr(req.Stmt.ID, req.Class, op.Bytes)
	case eval.VecExchange:
		per := op.Bytes
		if n := op.Src.Count(); n > 0 && op.Bytes/int64(n) > 0 {
			per = op.Bytes / int64(n)
		}
		w.setAttr(req.Stmt.ID, req.Class, per)
	}
}

// vectorizedComm performs the real traffic of one hoisted requirement in the
// topology the cost model charges: a ring exchange for shifts,
// root-to-members for broadcasts, owner-to-consumer messages for general
// aggregated communication.
func (w *worker) vectorizedComm(req *comm.Requirement, op eval.VectorizedOp) error {
	what := w.desc(req)
	dropped := w.ex.cfg.testDropSend != nil && w.ex.cfg.testDropSend(w.proc, req)
	switch op.Kind {
	case eval.VecSkip:
		return nil

	case eval.VecShift:
		if w.ex.n < 2 {
			return nil
		}
		next := (w.proc + 1) % w.ex.n
		prev := (w.proc - 1 + w.ex.n) % w.ex.n
		if !dropped {
			if err := w.send(next, message{req: req.ID}, what); err != nil {
				return err
			}
		}
		_, err := w.recv(prev, req.ID, what)
		return err

	case eval.VecBcast:
		w.procs = op.Dst.AppendProcs(w.procs[:0])
		members := 0
		for _, p := range w.procs {
			if p != op.From {
				members++
			}
		}
		if members == 0 {
			return nil
		}
		if w.proc == op.From {
			for _, p := range w.procs {
				if p == op.From || dropped {
					continue
				}
				if err := w.send(p, message{req: req.ID}, what); err != nil {
					return err
				}
			}
			return nil
		}
		if op.Dst.Contains(w.proc) {
			_, err := w.recv(op.From, req.ID, what)
			return err
		}
		return nil

	case eval.VecExchange:
		w.srcProcs = op.Src.AppendProcs(w.srcProcs[:0])
		srcProcs := w.srcProcs
		if len(srcProcs) == 0 {
			return nil
		}
		w.procs = op.Dst.AppendProcs(w.procs[:0])
		rcv := w.rcvProcs[:0]
		for _, p := range w.procs {
			if !op.Src.Contains(p) {
				rcv = append(rcv, p)
			}
		}
		w.rcvProcs = rcv
		// Each receiver pairs with a deterministic owner.
		for i, d := range rcv {
			s := srcProcs[i%len(srcProcs)]
			if w.proc == s && !dropped {
				if err := w.send(d, message{req: req.ID}, what); err != nil {
					return err
				}
			}
		}
		for i, d := range rcv {
			if w.proc == d {
				if _, err := w.recv(srcProcs[i%len(srcProcs)], req.ID, what); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return nil
}

// Instance coalesces one non-skipped per-instance transfer into the open
// batch (see batchInstance); the accountant still charges every instance.
func (w *worker) Instance(st *ir.Stmt, req *comm.Requirement, op eval.InstanceOp, guard float64) error {
	if w.charges() {
		if err := w.acct.Instance(st, req, op, guard); err != nil {
			return err
		}
	}
	if op.Skip {
		return nil
	}
	return w.batchInstance(req, st, op)
}

// Compute traces this worker's share of a statement's computation.
func (w *worker) Compute(st *ir.Stmt, set dist.ProcSet, seconds float64) error {
	if w.charges() {
		if err := w.acct.Compute(st, set, seconds); err != nil {
			return err
		}
	}
	if seconds > 0 && w.traces() && set.Contains(w.proc) {
		// The slice duration is the cost model's charge — the useful,
		// noise-free per-statement attribution for the timeline view.
		w.setAttr(st.ID, dist.CommNone, 0)
		w.emit(trace.Compute, -1, seconds, 0, -1)
		w.clearAttr()
	}
	return nil
}

// Exit flushes the open batch before the loop's combines and copy-outs.
func (w *worker) Exit() error { return w.flushBatch() }

// Collective performs a global reduction as a star gather to a
// deterministic root and a result broadcast back, with the partial values
// compared bitwise (replicated execution makes every partial the full
// value, so they must all agree).
func (w *worker) Collective(c *spmd.Combine, set dist.ProcSet) error {
	if w.charges() {
		if err := w.acct.Collective(c, set); err != nil {
			return err
		}
	}
	w.procs = set.AppendProcs(w.procs[:0])
	procs := w.procs
	if len(procs) < 2 || !set.Contains(w.proc) {
		return nil
	}
	m := c.Mapping
	if w.traces() && m.Def != nil && m.Def.Stmt != nil {
		w.setAttr(m.Def.Stmt.ID, dist.CommNone, 0)
	}
	defer w.clearAttr()
	what := "combine " + m.Def.Var.Name
	root := procs[0]
	bits := math.Float64bits(w.st.Scalar(m.Def.Var))
	if w.proc != root {
		if err := w.send(root, message{req: tagReduce, hasVal: true, bits: bits}, what); err != nil {
			return err
		}
		got, err := w.recv(root, tagReduceResult, what)
		if err != nil {
			return err
		}
		if got.hasVal && got.bits != bits {
			return &DivergenceError{Proc: w.proc, Peer: root, What: what,
				Got: math.Float64frombits(got.bits), Want: w.st.Scalar(m.Def.Var)}
		}
		return nil
	}
	for _, p := range procs[1:] {
		got, err := w.recv(p, tagReduce, what)
		if err != nil {
			return err
		}
		if got.hasVal && got.bits != bits {
			return &DivergenceError{Proc: w.proc, Peer: p, What: what,
				Got: math.Float64frombits(got.bits), Want: w.st.Scalar(m.Def.Var)}
		}
	}
	for _, p := range procs[1:] {
		if err := w.send(p, message{req: tagReduceResult, hasVal: true, bits: bits}, what); err != nil {
			return err
		}
	}
	if w.traces() {
		// One Reduce event per collective at the gathering root —
		// structurally identical to the simulator's emission.
		w.emit(trace.Reduce, -1, 0, w.elemBytes()*int64(len(procs)), -1)
	}
	return nil
}

// CopyOut broadcasts a lastprivate scalar's final value from root.
// Replicated execution means every worker already holds the value; the real
// broadcast verifies bitwise agreement with the owner.
func (w *worker) CopyOut(m *core.ScalarMapping, root int) error {
	if w.charges() {
		if err := w.acct.CopyOut(m, root); err != nil {
			return err
		}
	}
	what := "copy-out " + m.Def.Var.Name
	bits := math.Float64bits(w.st.Scalar(m.Def.Var))
	if w.traces() && m.Def.Stmt != nil {
		// Protocol-tagged traffic is invisible to traceSend/recv, so the
		// events are emitted manually — one Send per destination at the
		// root, one Recv per receiver, structurally identical to
		// machine.Multicast's emission.
		w.setAttr(m.Def.Stmt.ID, dist.CommBcast, w.elemBytes())
	}
	defer w.clearAttr()
	if w.proc != root {
		got, err := w.recv(root, tagCopyOut, what)
		if err != nil {
			return err
		}
		if got.hasVal && got.bits != bits {
			return &DivergenceError{Proc: w.proc, Peer: root, What: what,
				Got: math.Float64frombits(got.bits), Want: w.st.Scalar(m.Def.Var)}
		}
		if w.traces() {
			w.emit(trace.Recv, root, 0, w.elemBytes(), -1)
		}
		return nil
	}
	for p := 0; p < w.ex.n; p++ {
		if p == root {
			continue
		}
		if err := w.send(p, message{req: tagCopyOut, hasVal: true, bits: bits}, what); err != nil {
			return err
		}
		if w.traces() {
			w.emit(trace.Send, p, 0, w.elemBytes(), -1)
		}
	}
	return nil
}

// Merge runs the wire side of a privatized combine's tree merge: every
// worker has already folded the partial tables locally (identically —
// replicated execution), so each hop's loser ships the FNV checksum of its
// pre-merge partial row for the winner to verify bitwise.
func (w *worker) Merge(c *spmd.Combine, elems int64, hops []eval.MergeHop) error {
	if w.charges() {
		if err := w.acct.Merge(c, elems, hops); err != nil {
			return err
		}
	}
	what := "merge " + c.Var().Name
	for _, h := range hops {
		if w.proc == h.Loser {
			if err := w.send(h.Winner, message{req: tagMerge, hasVal: true, bits: h.Check}, what); err != nil {
				return err
			}
		}
		if w.proc == h.Winner {
			got, err := w.recv(h.Loser, tagMerge, what)
			if err != nil {
				return err
			}
			if got.hasVal && got.bits != h.Check {
				return &DivergenceError{Proc: w.proc, Peer: h.Loser, What: what,
					Got: math.Float64frombits(got.bits), Want: math.Float64frombits(h.Check)}
			}
		}
	}
	if w.traces() && w.proc == 0 && len(hops) > 0 {
		// One Reduce event per merge at the tree root, stamped with the
		// merged-row count — structurally identical to the simulator's
		// TreeMerge emission (protocol-tagged hop traffic is invisible to
		// traceSend/recv, like the collective's gather).
		w.ex.rec.Emit(w.proc, trace.Event{
			Time: w.ex.wall(), Bytes: elems * w.elemBytes() * int64(len(hops)),
			Kind: trace.Reduce, Class: dist.CommNone,
			Proc: int32(w.proc), Peer: -1, Stmt: int32(c.Red.Stmt.ID), Req: -1,
			Merged: int32(w.ex.n),
		})
	}
	return nil
}

// Redistribute performs the barrier an executable redistribution implies
// (the mapping update has already been applied to every worker's state).
func (w *worker) Redistribute(st *ir.Stmt, perProc int64) error {
	if err := w.flushBatch(); err != nil {
		return err
	}
	if w.charges() {
		if err := w.acct.Redistribute(st, perProc); err != nil {
			return err
		}
	}
	return w.starBarrier(tagBarrier, tagRelease, "redistribute "+st.Redist.Array.Name)
}

// Tick reports progress to the watchdog and enforces cancellation and
// deadline; the Site that follows is the iteration's crash check.
func (w *worker) Tick() error {
	w.ex.wd.tick()
	if h := w.ex.cfg.testHook; h != nil {
		if err := h(w.proc); err != nil {
			return err
		}
	}
	return w.ex.ctx.Err()
}

// openBatch is the worker's single in-flight message batch: contiguous
// per-instance transfers of one requirement between one (source,
// destination) pair, coalesced into a single physical message per receiving
// edge. Replicated execution means every worker observes the identical
// instance sequence, so all workers open, extend, and flush batches at the
// same logical points — which keeps the per-edge message order (and
// sequence numbers) consistent without any negotiation.
type openBatch struct {
	req   *comm.Requirement
	from  int
	dst   dist.ProcSet
	stmt  int
	class dist.CommClass
	bytes int64 // per-element payload bytes
	count int32
	// sum is an FNV-1a fold of the batched values' bit patterns, accumulated
	// per instance on the pre-statement image (the image at flush time may
	// already have been overwritten). Receivers accumulate their own fold
	// and compare it against the sender's — the batched equivalent of the
	// per-instance bitwise divergence check.
	sum    uint64
	hasVal bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds one 64-bit value into an FNV-1a checksum.
func fnvAdd(sum, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		sum ^= v & 0xff
		sum *= fnvPrime
		v >>= 8
	}
	return sum
}

// batchInstance coalesces one non-skipped per-instance transfer into the
// worker's open batch, flushing first when the (requirement, source,
// destination) key changes. Participants fold the element's local value —
// evaluated now, on the pre-statement image, where it is identical on every
// worker under replicated execution — into the batch checksum.
func (w *worker) batchInstance(req *comm.Requirement, st *ir.Stmt, op eval.InstanceOp) error {
	b := &w.batch
	if b.count > 0 && !(b.req == req && b.from == op.From && b.dst.Equal(op.Dst)) {
		if err := w.flushBatch(); err != nil {
			return err
		}
	}
	if b.count == 0 {
		*b = openBatch{req: req, from: op.From, dst: op.Dst, stmt: st.ID,
			class: req.Class, bytes: op.Bytes, sum: fnvOffset, hasVal: true}
	}
	b.count++
	if w.proc == op.From || op.Dst.Contains(w.proc) {
		local, lerr := w.st.RefValue(req.Use)
		if lerr != nil {
			// The statement's own semantics will surface lerr; the batch
			// just loses its verifiable payload.
			b.hasVal = false
		} else {
			b.sum = fnvAdd(b.sum, math.Float64bits(local))
		}
	}
	return nil
}

// flushBatch performs the real traffic of the open batch — the owner
// representative sends one message per receiving edge carrying the element
// count and the payload checksum, and every receiver verifies both against
// its replicated accumulation. Every worker flushes at the same logical
// points: on a batch-key change, before any other planned traffic
// (vectorized communication, reduction combines, redistribution barriers),
// and at the end of the walk.
func (w *worker) flushBatch() error {
	b := &w.batch
	if b.count == 0 {
		return nil
	}
	op := *b
	b.count = 0
	b.req = nil
	if w.proc != op.from && !op.dst.Contains(w.proc) {
		return nil // not a participant in this batch
	}
	req := op.req
	what := w.desc(req)
	dropped := w.ex.cfg.testDropSend != nil && w.ex.cfg.testDropSend(w.proc, req)
	m := message{req: req.ID, count: op.count, hasVal: op.hasVal, bits: op.sum}
	w.setAttr(op.stmt, op.class, op.bytes)
	defer w.clearAttr()
	verify := func(got message, from int) error {
		if got.count != op.count {
			return &DivergenceError{Proc: w.proc, Peer: from,
				What: what + " (batch length)",
				Got:  float64(got.count), Want: float64(op.count)}
		}
		if !got.hasVal || !op.hasVal {
			return nil
		}
		if got.bits != op.sum {
			return &DivergenceError{Proc: w.proc, Peer: from,
				What: what + " (batch checksum)",
				Got:  math.Float64frombits(got.bits), Want: math.Float64frombits(op.sum)}
		}
		return nil
	}

	if to, one := op.dst.IsSingle(); one {
		// Point-to-point delivery (a self-send uses the self edge, kept
		// for exact parity with the cost model, which charges it too).
		if w.proc == op.from && !dropped {
			if err := w.send(to, m, what); err != nil {
				return err
			}
		}
		if w.proc == to {
			got, err := w.recv(op.from, req.ID, what)
			if err != nil {
				return err
			}
			return verify(got, op.from)
		}
		return nil
	}
	// Multicast delivery: the root does not message itself (the cost
	// model's Multicast excludes the source as well).
	if w.proc == op.from {
		w.procs = op.dst.AppendProcs(w.procs[:0])
		for _, p := range w.procs {
			if p == op.from || dropped {
				continue
			}
			if err := w.send(p, m, what); err != nil {
				return err
			}
		}
		return nil
	}
	got, err := w.recv(op.from, req.ID, what)
	if err != nil {
		return err
	}
	return verify(got, op.from)
}

// starBarrier synchronizes all workers through processor 0: members send
// tagIn and wait for tagOut, the coordinator collects every tagIn before
// releasing anyone. Used by redistribution and by coordinated checkpoints.
func (w *worker) starBarrier(tagIn, tagOut int, what string) error {
	if w.ex.n < 2 {
		return nil
	}
	if w.proc == 0 {
		for p := 1; p < w.ex.n; p++ {
			if _, err := w.recv(p, tagIn, what); err != nil {
				return err
			}
		}
		for p := 1; p < w.ex.n; p++ {
			if err := w.send(p, message{req: tagOut}, what); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w.send(0, message{req: tagIn}, what); err != nil {
		return err
	}
	_, err := w.recv(0, tagOut, what)
	return err
}
