package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phpf"
)

// tinySize runs every workload in well under a second.
var tinySize = sizes{
	tomcatvN: 9, tomcatvIter: 1,
	dgefaN: 8, dgefaExecN: 8,
	appspN: 4, appspIter: 1,
	histN: 16, histM: 4, histIt: 1,
	dotN: 6, dotM: 4,
	smoothN: 16, smoothIter: 1,
	missSmoothN: [2]int{8, 12}, missTomcatvN: [2]int{5, 7},
	lightRPS: 50, heavyRPS: 100,
	ladder: []float64{100, 200},
}

func tinyConfig(t *testing.T, workload string, trace bool) (config, *bytes.Buffer) {
	out := &bytes.Buffer{}
	return config{
		workload: workload,
		seed:     7,
		budget:   300 * time.Millisecond,
		trace:    trace,
		spans:    filepath.Join(t.TempDir(), "spans.json"),
		size:     tinySize,
		out:      out,
	}, out
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsPrintEveryMetric runs each workload at a tiny size, untraced
// and traced: every declared metric is printed with its unit, nothing else
// is, and no operation fails.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"paper-sim", "exec-scaling", "serve-open"} {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			cfg, out := tinyConfig(t, w, trace)
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d of %d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w, trace, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%t: %s unit %q, want %q", w, trace, name, got.Unit, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%t: %s not printed", w, trace, name)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: undeclared metric %s", w, trace, name)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			}
		}
	}
}

// TestDeterministicMetricsRepeat: the simulated seconds, the machine's
// traffic, the statement instances and the concurrent backend's messages
// repeat exactly across seeds.
func TestDeterministicMetricsRepeat(t *testing.T) {
	for _, c := range []struct {
		trace bool
		names []string
	}{
		{false, []string{"sim_sec_geomean"}},
		{true, []string{"machine.messages", "machine.bytes", "machine.merges", "eval.instances", "exec.traffic_msgs", "lexer.tokens"}},
	} {
		var first metrics
		for _, seed := range []int64{1, 2} {
			cfg, _ := tinyConfig(t, "paper-sim", c.trace)
			cfg.seed = seed
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, n := range c.names {
				if got, want := res.Metrics[n].Value, first[n].Value; got != want {
					t.Errorf("%s %v with seed 2, %v with seed 1", n, got, want)
				}
			}
		}
	}
}

// TestCorruptedExpectationFails proves each workload's check can fail: a
// deliberately wrong expected output is counted and named.
func TestCorruptedExpectationFails(t *testing.T) {
	ctx := context.Background()
	cfg, _ := tinyConfig(t, "paper-sim", false)

	cells := paperSimCells(cfg.size)
	refs := sequentialRefs(cfg.size)
	for _, c := range cells {
		c.want = refs[c.family]
	}
	refs["histogram"].arrays["h"][0]++ // the sequential reference
	chk := &checker{}
	b := &cellBench{cells: cells}
	if _, _, err := b.sweep(ctx, chk, []int{len(cells) - 1, len(cells) - 2, len(cells) - 3, len(cells) - 4}); err != nil {
		t.Fatal(err)
	}
	if chk.failed != 2 || chk.byName["reduce/histogram/auto/P=8"] != 1 || chk.byName["reduce/histogram/collective/P=8"] != 1 {
		t.Errorf("paper-sim: failures %v, want both histogram cells", chk.byName)
	}

	exec := execScalingCells(cfg.size)[:1]
	rep, err := simReference(ctx, exec[0])
	if err != nil {
		t.Fatal(err)
	}
	exec[0].want = exactExpect(rep)
	exec[0].want.time *= 1.0000001 // the simulator reference, slightly off
	chk = &checker{}
	if _, _, err := (&cellBench{cells: exec}).sweep(ctx, chk, []int{0}); err != nil {
		t.Fatal(err)
	}
	if chk.failed != 1 {
		t.Errorf("exec-scaling: %d failures, want 1", chk.failed)
	}

	cfg.workload = "serve-open"
	chk = &checker{}
	sb, err := newServeBench(ctx, cfg, chk)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()
	if chk.failed != 0 {
		t.Fatalf("serve warm-up failed: %v", chk.byName)
	}
	hot := sb.hot[0]
	hot.want.stats.Messages++ // the direct-API run of the same spec
	bad := *sb.bad[0]
	bad.code = "E999" // a malformed body must get exactly its coded 400
	checkAll(chk, sb.pass(ctx, []*serveOp{hot, &bad}))
	if chk.failed != 2 || chk.byName[hot.name] != 1 || chk.byName[bad.name] != 1 {
		t.Errorf("serve-open: failures %v, want %s and %s", chk.byName, hot.name, bad.name)
	}
}

// TestPaperOptionsSpellOutPresets: the explicit option sets equal the
// library's presets, up to the privatization source the paper profile
// pins.
func TestPaperOptionsSpellOutPresets(t *testing.T) {
	for _, c := range []struct {
		name   string
		got    phpf.Options
		preset phpf.Options
	}{
		{"naive", replicationOpts, phpf.NaiveOptions()},
		{"producer", producerOpts, phpf.ProducerOptions()},
		{"selected", selectedOpts, phpf.SelectedOptions()},
	} {
		c.preset.Privatization = phpf.PrivDirectives
		if c.got != c.preset {
			t.Errorf("%s: %+v, preset %+v", c.name, c.got, c.preset)
		}
	}
}
