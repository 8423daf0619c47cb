// Command perfbench is the phpf benchmark. It times the public entry points
// of each module from outside (parser.Parse, core.BuildAndAnalyze,
// spmd.Generate, eval.Walk, Compiled.Execute on the simulator and the
// concurrent executor, and the phpfserve request path) on three workloads:
//
//	paper-sim     the Table 1-3 cells and the reduce kernels on the simulator
//	exec-scaling  the concurrent backend at P = 1, 2, 4, 8
//	serve-open    open-loop Poisson traffic against an in-process serve.Server
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload paper-sim --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run, whose spans it writes to
// --spans. The last line of standard output is one JSON object; the lines
// before it are for people. Every operation's output is checked, and any
// mismatch makes the exit status 1. README.md documents the workloads and
// every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// checker counts checked operations and the ones whose output was wrong.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	byName    map[string]int
	firstErr  map[string]string
}

// record counts one operation; a non-nil err marks it failed under name.
func (c *checker) record(name string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.byName == nil {
		c.byName, c.firstErr = map[string]int{}, map[string]string{}
	}
	if c.byName[name] == 0 {
		c.firstErr[name] = err.Error()
	}
	c.byName[name]++
}

// failures returns the number of failed operations so far.
func (c *checker) failures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// report prints every failing operation by name.
func (c *checker) report(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "MISMATCH %s (%d times): %s\n", n, c.byName[n], c.firstErr[n])
	}
	share := 0.0
	if c.attempted > 0 {
		share = float64(c.failed) / float64(c.attempted)
	}
	fmt.Fprintf(w, "fail_share %.6f ratio (%d of %d operations)\n", share, c.failed, c.attempted)
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // measurement time of the run
	trace    bool
	spans    string // span file of a traced run
	size     sizes
	out      io.Writer // human-readable lines
}

// workloads maps each workload name to its runner. A runner returns the
// metrics of the run; failures go to the checker.
var workloads = map[string]func(ctx context.Context, cfg config, chk *checker) (metrics, error){
	"paper-sim":    runPaperSim,
	"exec-scaling": runExecScaling,
	"serve-open":   runServeOpen,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper-sim, exec-scaling or serve-open")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "measurement time of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-sim|exec-scaling|serve-open, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		spans:    *spans,
		size:     fullSize,
		out:      os.Stdout,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and assembles its result line.
func run(ctx context.Context, cfg config) (*result, error) {
	fmt.Fprintf(cfg.out, "perfbench workload=%s seed=%d seconds=%.0f trace=%t\n",
		cfg.workload, cfg.seed, cfg.budget.Seconds(), cfg.trace)
	chk := &checker{}
	m, err := workloads[cfg.workload](ctx, cfg, chk)
	if err != nil {
		return nil, err
	}
	chk.report(cfg.out)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "%-40s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(cfg.out, "seed %d\n", cfg.seed)
	return &result{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   m,
	}, nil
}
