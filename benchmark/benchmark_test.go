package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct{ n, want int }{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100 - i) // unsorted on purpose
	}
	if got := quantile(samples, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", got)
	}
	if got := p50(samples); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
}

func TestSelfTimeOnNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps its sibling
		{ID: 3, Parent: 1, Start: 15, End: 25},  // grandchild: only its parent's concern
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
	}
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 10, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got, want[i])
		}
	}

	// A placed child occupies the end of its parent.
	tr := newTracer()
	id := tr.begin("parent", -1, 0)
	tr.end(id)
	tr.spans[id].Start, tr.spans[id].End = 1000, 5000
	tr.place("child", id, 0, 1500)
	if c := tr.spans[1]; c.Start != 3500 || c.End != 5000 || !c.Placed || c.Parent != id {
		t.Errorf("placed child = %+v", c)
	}
	if self := selfTimes(tr.spans)[id]; self != 2500 {
		t.Errorf("parent self time with placed child = %d, want 2500", self)
	}

	// A nil tracer records nothing and still runs the call.
	var off *tracer
	ran := false
	off.do("x", off.begin("root", -1, 0), 0, func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the traced call")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	draw := func(seed uint64, worker int) []request {
		g := newMixedGen(seed, worker, mixedTenants, mixedPairs)
		out := make([]request, 120)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if fmt.Sprint(a) == fmt.Sprint(draw(8, 0)) {
		t.Error("different seeds gave the same sequence")
	}
	if fmt.Sprint(a) == fmt.Sprint(draw(7, 1)) {
		t.Error("different workers gave the same sequence")
	}
	// The mix is fixed: each block holds every (tenant, op) once.
	block := mixedTenants * int(numOps)
	for at := 0; at < len(a); at += block {
		seen := map[[2]int]bool{}
		for _, r := range a[at : at+block] {
			seen[[2]int{r.tenant, int(r.op)}] = true
		}
		if len(seen) != block {
			t.Fatalf("block at %d holds %d distinct (tenant, op), want %d", at, len(seen), block)
		}
	}
	c1, c2 := newChurnGen(7, 0, 6, churnPairs), newChurnGen(7, 0, 6, churnPairs)
	other := newChurnGen(9, 0, 6, churnPairs)
	same := true
	for i := 0; i < 100; i++ {
		r := c1.next()
		if r != c2.next() {
			t.Fatalf("churn: same seed diverges at %d", i)
		}
		if r != other.next() {
			same = false
		}
		if r.op != opAdd || r.tenant < 0 || r.tenant >= 6 {
			t.Fatalf("churn request %+v out of range", r)
		}
	}
	if same {
		t.Error("churn: different seeds gave the same sequence")
	}
}

func TestValidateDefs(t *testing.T) {
	if err := validateDefs(workloadNames(), endToEnd, perLayer); err != nil {
		t.Fatalf("the benchmark's own lists are invalid: %v", err)
	}
	e2e := func(names ...string) []metricDef {
		out := []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2}}
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "ms", Better: "lower", Bound: 0.1})
		}
		return out
	}
	layers := func(n int) []metricDef {
		out := make([]metricDef, n)
		for i := range out {
			out[i] = metricDef{Name: fmt.Sprintf("layer.m%d", i), Unit: "us", Better: "lower"}
		}
		return out
	}
	many := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("n%d-of-%d", i, n)
		}
		return out
	}
	two := []string{"a", "b"}
	for name, err := range map[string]error{
		"one workload":    validateDefs(many(1), e2e(), layers(1)),
		"nine workloads":  validateDefs(many(9), e2e(), layers(1)),
		"17 end-to-end":   validateDefs(two, e2e(many(16)...), layers(1)),
		"129 per-layer":   validateDefs(two, e2e(), layers(129)),
		"no per-layer":    validateDefs(two, e2e(), nil),
		"space in name":   validateDefs(two, e2e("a b"), layers(1)),
		"leading dot":     validateDefs(two, e2e(".x"), layers(1)),
		"65 characters":   validateDefs(two, e2e(strings.Repeat("x", 65)), layers(1)),
		"name used twice": validateDefs(two, e2e("a"), layers(1)),
		"no setup_s":      validateDefs(two, e2e("x")[1:], layers(1)),
		"bound above 25%": validateDefs(two, []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.3}}, layers(1)),
		"bad unit":        validateDefs(two, e2e(), []metricDef{{Name: "l.x", Unit: "m s", Better: "lower"}}),
		"bad direction":   validateDefs(two, e2e(), []metricDef{{Name: "l.x", Unit: "ms", Better: "faster"}}),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateDefs(many(8), e2e(many(15)...), layers(128)); err != nil {
		t.Errorf("lists at the limits rejected: %v", err)
	}
}

// TestBenchmarkJSON pins the driver's description of the benchmark to
// the tables the program measures with.
func TestBenchmarkJSON(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2eDef struct {
		layerDef
		Bound float64 `json:"bound"`
	}
	type doc struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []wl       `json:"workloads"`
		EndToEnd   []e2eDef   `json:"end_to_end"`
		PerLayer   []layerDef `json:"per_layer"`
	}
	want := doc{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, e2eDef{layerDef{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != string(wantBytes) {
		t.Errorf("BENCHMARK.json does not match the benchmark's tables; want:\n%s", wantBytes)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, above 64 KiB", len(got))
	}
}

func TestSpreadOf(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	median, spread := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if median != 5.5 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %v, %v; want 5.5, 1", median, spread)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if _, spread := spreadOf([]float64{1, 2, 4, 8}); math.Abs(spread-5.75/3) > 1e-12 {
		t.Errorf("spreadOf(1,2,4,8) spread = %v, want %v", spread, 5.75/3)
	}
}

// TestSmoke runs all four workloads and the traced pass on toy
// parameters with sub-second windows, so that the harness cannot rot:
// every output check runs, every metric must be reported.
func TestSmoke(t *testing.T) {
	cfg := config{shape: smokeShape, smoke: true, seed: 3, window: 200 * time.Millisecond, outDir: t.TempDir()}
	for _, w := range workloads {
		res, err := runOne(cfg, w, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (reported: %v)", w.name, m.Name, v, ok)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "result-"+w.name+".json")); err != nil {
			t.Error(err)
		}
	}
	res, err := runOne(cfg, workloads[0], true)
	if err != nil {
		t.Fatalf("traced pass: %v", err)
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v (reported: %v)", m.Name, v, ok)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			t.Error(err)
		}
	}
}
