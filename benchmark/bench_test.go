package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testScale runs the whole pipeline on a 9x13 grid, small enough for
// `go test`; the numbers mean nothing, the plumbing is what is checked.
var testScale = scale{
	L2Out: [2]int{9, 13},
	Small: [2]int{9, 13},
	Steps: map[string]int{
		"serial_l2out":  2,
		"world2_l2out":  2,
		"world4_small":  4,
		"campaign_ckpt": 4,
	},
	SetupReps:     2,
	MinReps:       2,
	Rounds:        1,
	ProbeReps:     1,
	SerialSamples: 4,
	RatioLeg:      time.Millisecond,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkSpec is BENCHMARK.json as the contract defines it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestSpecMatchesRegistry keeps BENCHMARK.json and metrics.go in step:
// same workloads, same metrics, same units, directions and bounds.
func TestSpecMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, registry has %q: %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, registry %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d = %+v, registry has %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Unit == "" || len(m.Unit) > 16 {
				t.Errorf("%s: %s has unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != hi && m.Better != lo {
				t.Errorf("%s: %s has direction %q", kind, m.Name, m.Better)
			}
			switch {
			case bounded && (g.Bound == nil || math.Abs(*g.Bound-m.Bound) > 1e-12 || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: %s bound %v, registry %v", kind, m.Name, g.Bound, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
}

// TestPipeline runs verify, one round of the four workloads and the
// layer phase, then checks that every metric is there once, that the
// traces were written and that span self-times account for the wall.
func TestPipeline(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	a := &app{sc: testScale, seed: 1, seconds: 0.05, outDir: dir, inProcess: true, out: &stdout, log: &stderr}
	resultPath := filepath.Join(dir, "result.json")
	if code := a.ledger("all", resultPath); code != 0 {
		t.Fatalf("ledger exited %d\n%s", code, stderr.String())
	}
	res, err := loadResult(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Verify) != 2 {
		t.Fatalf("result not ok: %+v", res.Errors)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr == nil || wr.Ops == 0 || wr.OpsFailed != 0 {
			t.Fatalf("%s: %+v", w.Name, wr)
		}
		for _, m := range endToEnd {
			if s := wr.Metrics[m.Name]; s.N != 1 || s.Median <= 0 {
				t.Errorf("%s %s = %+v, want one positive sample", w.Name, m.Name, s)
			}
		}
	}

	// Every per-layer name is reported once, and nothing else is.
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
		_, have := res.Layers.Values[m.Name]
		_, refused := res.Layers.Refused[m.Name]
		if have == refused {
			t.Errorf("%s: reported=%v refused=%v, want exactly one", m.Name, have, refused)
		}
		if n := strings.Count(stdout.String(), "\n  "+m.Name+" "); n != 1 {
			t.Errorf("%s printed %d times, want once", m.Name, n)
		}
	}
	for name := range res.Layers.Values {
		if !known[name] {
			t.Errorf("layer phase reported %s, which metrics.go does not list", name)
		}
	}
	for _, m := range endToEnd {
		if n := strings.Count(stdout.String(), "\n  "+m.Name+" "); n != len(workloads) {
			t.Errorf("%s printed %d times, want once per workload", m.Name, n)
		}
	}

	// One budget and one trace per workload; on the driver track, self
	// times plus the wall the ranks cover are the traced wall.
	if len(res.Layers.Budgets) != len(workloads) || len(res.Layers.Traces) != len(workloads) {
		t.Fatalf("%d budgets, %d traces, want %d of each", len(res.Layers.Budgets), len(res.Layers.Traces), len(workloads))
	}
	for _, bd := range res.Layers.Budgets {
		if sum := bd.driverSelfSum(); math.Abs(sum-bd.WallMS) > 1e-6*bd.WallMS {
			t.Errorf("%s: driver self times + rank cover = %.6f ms, traced wall %.6f ms", bd.Workload, sum, bd.WallMS)
		}
		if bd.CoveragePct < 95 {
			t.Errorf("%s: coverage %.1f%%", bd.Workload, bd.CoveragePct)
		}
	}
	for _, path := range res.Layers.Traces {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: %d events, err %v", path, len(doc.TraceEvents), err)
		}
	}

	// A result agrees with itself.
	var cmp bytes.Buffer
	if code := compare(resultPath, resultPath, &cmp, &cmp); code != 0 {
		t.Errorf("-compare of a result with itself exited %d:\n%s", code, cmp.String())
	}
}

// TestUnitContract checks the one-line result of a single run: the
// keys the contract names, every metric with its unit.
func TestUnitContract(t *testing.T) {
	var stdout, stderr bytes.Buffer
	a := &app{sc: testScale, seed: 2, seconds: 0.05, outDir: t.TempDir(), inProcess: true, out: &stdout, log: &stderr}
	w, _ := workloadByName("world4_small")
	if code := a.printUnit(a.unitE2E(w), w); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(got.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v := got.Metrics[m.Name]; v.Value == nil || *v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("%s = %+v", m.Name, v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A driver span with a child of its own and two overlapping rank
	// spans: the ranks cover their union once.
	spans := []span{
		{ID: 1, Rank: driverRank, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Rank: driverRank, Name: "core.new", Start: 0, End: 10},
		{ID: 3, Parent: 1, Rank: driverRank, Name: "mpi.run", Start: 20, End: 90},
		{ID: 4, Parent: 3, Rank: 0, Name: "bench.rank", Start: 25, End: 80},
		{ID: 5, Parent: 3, Rank: 1, Name: "bench.rank", Start: 30, End: 85},
		{ID: 6, Parent: 4, Rank: 0, Name: "decomp.advance", Start: 30, End: 70},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 10, 3: 10, 4: 15, 5: 55, 6: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	bd := newBudget(workload{Name: "t"}, 1, spans)
	if got := bd.driverSelfSum(); math.Abs(got-bd.WallMS) > 1e-12 {
		t.Errorf("driver self + rank cover = %v, wall %v", got, bd.WallMS)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: mStepsPerS, Better: hi, Bound: 0.10}
	tight := func(m float64) summary {
		return summary{N: 5, Min: m * 0.99, Q1: m * 0.995, Median: m, Q3: m * 1.005, Max: m * 1.01}
	}
	wide := func(m float64) summary {
		return summary{N: 5, Min: m * 0.8, Q1: m * 0.9, Median: m, Q3: m * 1.1, Max: m * 1.2}
	}
	for _, tc := range []struct {
		name string
		a, b summary
		want string
	}{
		{"same", tight(100), tight(101), "ok"},
		{"slower", tight(100), tight(85), "worse"},
		{"faster", tight(100), tight(130), "ok"},
		{"noisy and interleaved", wide(100), wide(97), "unresolved"},
		{"noisy but separated", wide(100), wide(200), "ok"},
		{"absent", tight(100), summary{}, "missing"},
	} {
		if _, got := verdict(higher, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	lower := metricDef{Name: mCPUPerStep, Better: lo, Bound: 0.10}
	if _, got := verdict(lower, tight(100), tight(120)); got != "worse" {
		t.Errorf("lower-is-better metric up 20%%: verdict %q, want worse", got)
	}
}
