package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchTakesMinAcrossCounts(t *testing.T) {
	p := writeTemp(t, "bench.txt", `
goos: linux
BenchmarkEvalMulDepth1/path=rns-8   	       1	   4991741 ns/op
BenchmarkEvalMulDepth1/path=rns-8   	       1	   4700123 ns/op
BenchmarkEvalMulDepth1/path=rns-8   	       1	   5100000 ns/op
BenchmarkRotateHoisted     	       2	  13464356 ns/op	 1024 B/op
PASS
`)
	got, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	if got["BenchmarkEvalMulDepth1/path=rns"] != 4700123 {
		t.Errorf("min ns/op = %v, want 4700123", got["BenchmarkEvalMulDepth1/path=rns"])
	}
	if got["BenchmarkRotateHoisted"] != 13464356 {
		t.Errorf("rotate = %v", got["BenchmarkRotateHoisted"])
	}
}

func TestRegressionsSortedWorstFirst(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkC": 100, "BenchmarkD": 100}
	cur := map[string]float64{"BenchmarkA": 150, "BenchmarkB": 300, "BenchmarkC": 110} // D not measured
	got := regressions(base, cur, []string{"BenchmarkA", "BenchmarkB", "BenchmarkC", "BenchmarkD"}, 1.25)
	if len(got) != 2 {
		t.Fatalf("got %d regressions, want 2 (A and B)", len(got))
	}
	if got[0].name != "BenchmarkB" || got[1].name != "BenchmarkA" {
		t.Errorf("order = %s, %s; want worst-first BenchmarkB, BenchmarkA", got[0].name, got[1].name)
	}
}

func TestSummarizeShowsOldNewPercent(t *testing.T) {
	out := summarize([]regression{{name: "BenchmarkEvalMul", old: 1e6, new: 1.5e6}})
	for _, want := range []string{"Regressed rows:", "BenchmarkEvalMul", "1.000ms -> 1.500ms", "+50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	p := writeTemp(t, "noise.txt", `
ok  	repro/internal/bfv	1.358s
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
Benchmark without numbers
`)
	got, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from noise, want 0", len(got))
	}
}

// TestBenchGateFailsOnMissingRow: a baseline row the new run did not
// measure (a renamed or deleted benchmark) fails the gate instead of
// silently leaving it; an extra unbaselined row does not.
func TestBenchGateFailsOnMissingRow(t *testing.T) {
	base := writeTemp(t, "base.txt", `
BenchmarkKept-8      1   1000000 ns/op
BenchmarkRetired-8   1   2000000 ns/op
`)
	if code := benchGate(base, writeTemp(t, "same.txt", `
BenchmarkKept-8      1   1100000 ns/op
BenchmarkRetired-8   1   2000000 ns/op
BenchmarkAdded-8     1   5000000 ns/op
`), 1.25); code != 0 {
		t.Errorf("all baseline rows measured within threshold: exit %d, want 0", code)
	}
	if code := benchGate(base, writeTemp(t, "missing.txt", `
BenchmarkKept-8      1   1000000 ns/op
`), 1.25); code != 1 {
		t.Errorf("baseline row not measured: exit %d, want 1", code)
	}
	if code := benchGate(base, writeTemp(t, "slow.txt", `
BenchmarkKept-8      1   1500000 ns/op
BenchmarkRetired-8   1   2000000 ns/op
`), 1.25); code != 1 {
		t.Errorf("50%% regression: exit %d, want 1", code)
	}
	if code := benchGate("does-not-exist.txt", base, 1.25); code != 2 {
		t.Errorf("missing baseline file: exit %d, want 2", code)
	}
}

// TestBenchGateFailsOnSimulatedFigureChange: simulated cycles and
// instructions are gated exactly — one more or less on a benchmark that
// reports them on both sides fails the gate, even far inside the ns/op
// threshold; a figure reported on one side only is not compared.
func TestBenchGateFailsOnSimulatedFigureChange(t *testing.T) {
	base := writeTemp(t, "base.txt", `
BenchmarkPIMSum64-2   1   8606199 ns/op   723840 simcycles/run   18060502 siminstr/run   290000 B/op   1723 allocs/op
BenchmarkPIMSum64-2   1   9639939 ns/op   723840 simcycles/run   18060502 siminstr/run   290896 B/op   1725 allocs/op
BenchmarkHost-2       1   1000000 ns/op
`)
	if code := benchGate(base, writeTemp(t, "same.txt", `
BenchmarkPIMSum64-2   1   9000000 ns/op   723840 simcycles/run   18060502 siminstr/run   291000 B/op   1730 allocs/op
BenchmarkHost-2       1   1000000 ns/op   5 simcycles/run
`), 1.25); code != 0 {
		t.Errorf("unchanged simulated figures: exit %d, want 0", code)
	}
	for name, run := range map[string]string{
		"one cycle more":       "BenchmarkPIMSum64-2   1   8000000 ns/op   723841 simcycles/run   18060502 siminstr/run",
		"one cycle less":       "BenchmarkPIMSum64-2   1   8000000 ns/op   723839 simcycles/run   18060502 siminstr/run",
		"one instruction more": "BenchmarkPIMSum64-2   1   8000000 ns/op   723840 simcycles/run   18060503 siminstr/run",
		"cycles only, changed": "BenchmarkPIMSum64-2   1   8000000 ns/op   723841 simcycles/run",
		"differs run to run":   "BenchmarkPIMSum64-2   1   8000000 ns/op   723840 simcycles/run\nBenchmarkPIMSum64-2   1   8000000 ns/op   723841 simcycles/run",
	} {
		if code := benchGate(base, writeTemp(t, "new.txt", run+"\nBenchmarkHost-2   1   1000000 ns/op\n"), 1.25); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
	}
	got, err := parseExact(base)
	want := map[string][]string{
		"BenchmarkPIMSum64 simcycles/run": {"723840"},
		"BenchmarkPIMSum64 siminstr/run":  {"18060502"},
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseExact = %v, %v; want %v", got, err, want)
	}
}

// TestBenchGateFailsOnAllocGrowth: allocs/op is gated on each side's
// fewest across repetitions — a row whose fewest rises more than 5 %
// above the baseline's fewest fails, a spread of a few allocations
// between repetitions does not, and a row reporting allocs/op on one
// side only is not compared.
func TestBenchGateFailsOnAllocGrowth(t *testing.T) {
	base := writeTemp(t, "base.txt", `
BenchmarkPIMSum64-2   1   8000000 ns/op   1000 allocs/op
BenchmarkPIMSum64-2   1   8000000 ns/op   1002 allocs/op
BenchmarkHost-2       1   1000000 ns/op
`)
	for name, c := range map[string]struct {
		rows string
		want int
	}{
		"unchanged":            {"1000 allocs/op", 0},
		"fewer":                {"190 allocs/op", 0},
		"within 5%":            {"1050 allocs/op", 0},
		"beyond 5%":            {"1051 allocs/op", 1},
		"fewest within 5%":     {"1200 allocs/op\nBenchmarkPIMSum64-2   1   8000000 ns/op   1049 allocs/op", 0},
		"every run beyond 5%":  {"1100 allocs/op\nBenchmarkPIMSum64-2   1   8000000 ns/op   1060 allocs/op", 1},
		"not reported anymore": {"0 B/op", 0},
	} {
		fresh := writeTemp(t, "new.txt", "BenchmarkPIMSum64-2   1   8000000 ns/op   "+c.rows+"\nBenchmarkHost-2   1   1000000 ns/op   99 allocs/op\n")
		if code := benchGate(base, fresh, 1.25); code != c.want {
			t.Errorf("%s: exit %d, want %d", name, code, c.want)
		}
	}
	got, err := parseMin(base, "allocs/op")
	if want := map[string]float64{"BenchmarkPIMSum64": 1000}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseMin(allocs/op) = %v, %v; want %v", got, err, want)
	}
}
