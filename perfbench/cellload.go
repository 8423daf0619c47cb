package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 5

// cellBench is the state of a cell workload after set-up.
type cellBench struct {
	cells []*cell
	ref   *refKernel
}

func runPaperSim(ctx context.Context, cfg config, chk *checker) (metrics, error) {
	return runCells(ctx, cfg, chk, func() (*cellBench, error) {
		cells := paperSimCells(cfg.size)
		refs := sequentialRefs(cfg.size)
		for _, c := range cells {
			c.want = refs[c.family]
		}
		return &cellBench{cells: cells}, nil
	})
}

func runExecScaling(ctx context.Context, cfg config, chk *checker) (metrics, error) {
	return runCells(ctx, cfg, chk, func() (*cellBench, error) {
		cells := execScalingCells(cfg.size)
		for _, c := range cells {
			rep, err := simReference(ctx, c)
			if err != nil {
				return nil, fmt.Errorf("set-up: simulating %s: %w", c.name, err)
			}
			c.want = exactExpect(rep)
		}
		return &cellBench{cells: cells}, nil
	})
}

// runCells sets a cell workload up setupRepeats times, then runs either the
// end-to-end measurement or the traced run. Set-up builds the cells and
// their references and runs every cell once, checked, so that lazy
// initialisation is done before timing.
func runCells(ctx context.Context, cfg config, chk *checker, setup func() (*cellBench, error)) (metrics, error) {
	var b *cellBench
	var setups []float64
	for rep := 0; rep < setupRepeats; rep++ {
		start := time.Now()
		var err error
		if b, err = setup(); err != nil {
			return nil, err
		}
		order := make([]int, len(b.cells))
		for i := range order {
			order[i] = i
		}
		if _, _, err := b.sweep(ctx, chk, order); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if cfg.trace {
		return tracedCells(ctx, cfg, chk, b)
	}
	b.ref = newRefKernel()
	m, err := b.lightPhase(ctx, cfg, chk, cfg.budget)
	if err != nil {
		return nil, err
	}
	m.set("setup_s", "s", median(setups))
	return m, nil
}

// sweep runs every cell once, one at a time, in order, checking each
// output. It returns the per-cell latencies and the simulated seconds.
func (b *cellBench) sweep(ctx context.Context, chk *checker, order []int) (lat, simSec []float64, err error) {
	lat = make([]float64, len(b.cells))
	simSec = make([]float64, len(b.cells))
	for _, i := range order {
		c := b.cells[i]
		rep, d, err := runCell(ctx, nil, c.name, c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.name, err)
		}
		chk.record(c.name, c.want.check(rep))
		lat[i] = ms(d)
		simSec[i] = rep.Time
	}
	return lat, simSec, nil
}

// lightPhase runs sweeps in seeded orders, one cell at a time, for the
// given time (at least one sweep). The reference kernel runs after each
// sweep, outside its timing and allocation count, and the wall-time
// metrics are medians of the sweep's ratios to it.
func (b *cellBench) lightPhase(ctx context.Context, cfg config, chk *checker, budget time.Duration) (metrics, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	perCell := make([][]float64, len(b.cells))
	var sweeps, sweepRefs, cellRefs, refs, allocMB, simSec []float64
	deadline := time.Now().Add(budget)
	for len(sweeps) == 0 || time.Now().Before(deadline) {
		order := rng.Perm(len(b.cells))
		bytes0, _ := memCounters()
		lat, sec, err := b.sweep(ctx, chk, order)
		if err != nil {
			return nil, err
		}
		bytes1, _ := memCounters()
		ref := b.ref.run()
		total := 0.0
		for i, l := range lat {
			perCell[i] = append(perCell[i], l)
			total += l
		}
		sweeps = append(sweeps, total/1000)
		sweepRefs = append(sweepRefs, total/ref)
		cellRefs = append(cellRefs, geomean(lat)/ref)
		refs = append(refs, ref)
		allocMB = append(allocMB, float64(bytes1-bytes0)/(1<<20))
		simSec = sec
	}
	m := metrics{}
	m.set("sweep_ref", "ref", median(sweepRefs))
	m.set("cell_ref_geomean", "ref", median(cellRefs))
	m.set("alloc_mb_per_sweep", "MB", median(allocMB))
	m.set("sim_sec_geomean", "sim-s", geomean(simSec))
	fmt.Fprintf(cfg.out, "light: %d sweeps of %d cells, one at a time; sweep seconds %.3f\n", len(sweeps), len(b.cells), sweeps)
	fmt.Fprintf(cfg.out, "reference kernel after each sweep, ms: median %.3f, quartiles %.3f %.3f\n",
		median(refs), quantile(refs, 0.25), quantile(refs, 0.75))
	for i, c := range b.cells {
		fmt.Fprintf(cfg.out, "  %-36s %10.3f ms  sim_sec %.6g\n", c.name, median(perCell[i]), simSec[i])
	}
	return m, nil
}

// heavyPhase runs one closed-loop stream of seeded sweeps per CPU at once
// for the given time (each stream finishes at least one cell). The traced
// run reports it: under full load the shared machine's share of CPU sets
// the figures, and they spread too widely across runs to gate.
func (b *cellBench) heavyPhase(ctx context.Context, cfg config, chk *checker, budget time.Duration) (metrics, error) {
	streams := runtime.NumCPU()
	var mu sync.Mutex
	var lat []float64
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(s) + 1))
			var mine []float64
			var err error
			for len(mine) == 0 || time.Now().Before(deadline) {
				for _, i := range rng.Perm(len(b.cells)) {
					c := b.cells[i]
					rep, d, e := runCell(ctx, nil, c.name, c)
					if e != nil {
						err = fmt.Errorf("%s: %w", c.name, e)
						break
					}
					chk.record(c.name, c.want.check(rep))
					mine = append(mine, ms(d))
					if !time.Now().Before(deadline) {
						break
					}
				}
				if err != nil {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			lat = append(lat, mine...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	elapsed := time.Since(start).Seconds()
	m := metrics{}
	m.set("loadgen.lat_ms_p50-heavy", "ms", quantile(lat, 0.50))
	m.set("loadgen.lat_ms_p99-heavy", "ms", quantile(lat, 0.99))
	m.set("loadgen.max_rps", "1/s", float64(len(lat))/elapsed)
	fmt.Fprintf(cfg.out, "heavy: %d streams, %d cells in %.2f s\n", streams, len(lat), elapsed)
	return m, nil
}
