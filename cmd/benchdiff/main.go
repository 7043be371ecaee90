// Command benchdiff compares `go test -bench` output against a
// checked-in baseline and fails on regressions — the benchstat-style
// gate of the CI benchmark-regression job.
//
// Both inputs are raw `go test -bench` output (any -count). For each
// benchmark name the minimum ns/op across repetitions is used — the
// estimate least polluted by scheduling noise — and a benchmark regresses
// when its minimum exceeds the baseline minimum by more than the
// threshold factor. A baseline row the new run did not measure fails the
// gate too — a renamed or deleted benchmark must leave the baseline
// deliberately, not drop out of the gate unnoticed; a benchmark with no
// baseline row is reported and passes.
//
// The simulated cycles and instructions a PIM benchmark reports
// (simcycles/run, siminstr/run) are the deterministic model, not a
// timing, so they are gated exactly: a benchmark that reports one in
// both outputs fails on any difference, and a deliberate change edits
// the baseline rows in the same change. A benchmark that reports
// allocs/op in both outputs fails when its fewest allocations exceed
// the baseline's fewest by more than allocSlack.
//
//	go test ./internal/bfv -run '^$' -bench . -benchtime=1x -count=3 > new.txt
//	benchdiff -baseline .github/bench-baseline.txt -new new.txt -threshold 1.25
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// rowLine matches a result line's name and its "value unit" pairs, e.g.
// "BenchmarkPIMSum64-2   1   8606199 ns/op   723840 simcycles/run ..."
var rowLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// exactUnits are the metrics gated exactly: the simulator's model.
var exactUnits = []string{"simcycles/run", "siminstr/run"}

// allocSlack is the factor by which a benchmark's fewest allocs/op may
// exceed the baseline's fewest. An allocation count nearly repeats, but
// not exactly: the baseline's own repetitions spread 1 723–1 725 (a
// warm PIM Sum of 64) and 51 004–51 006 (a 54-bit PIM Mul).
const allocSlack = 1.05

// scanBench calls row with the name and value that re captures on each
// line of the `go test -bench` output at path.
func scanBench(path string, re *regexp.Regexp, row func(name, value string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := re.FindStringSubmatch(strings.TrimSpace(sc.Text())); m != nil {
			row(m[1], m[2])
		}
	}
	return sc.Err()
}

// parseBench returns the minimum ns/op per benchmark name.
func parseBench(path string) (map[string]float64, error) { return parseMin(path, "ns/op") }

// parseMin returns, per benchmark name that reports the metric unit,
// its minimum value across repetitions.
func parseMin(path, unit string) (map[string]float64, error) {
	out := map[string]float64{}
	err := scanBench(path, rowLine, func(name, pairs string) {
		f := strings.Fields(pairs)
		for i := 0; i+1 < len(f); i += 2 {
			if f[i+1] != unit {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			if cur, ok := out[name]; !ok || v < cur {
				out[name] = v
			}
		}
	})
	return out, err
}

// parseExact returns, keyed "name unit", the distinct values of each
// exact metric each benchmark reports, in ascending order.
func parseExact(path string) (map[string][]string, error) {
	out := map[string][]string{}
	err := scanBench(path, rowLine, func(name, pairs string) {
		f := strings.Fields(pairs)
		for i := 0; i+1 < len(f); i += 2 {
			key := name + " " + f[i+1]
			if slices.Contains(exactUnits, f[i+1]) && !slices.Contains(out[key], f[i]) {
				out[key] = append(out[key], f[i])
				slices.Sort(out[key])
			}
		}
	})
	return out, err
}

func main() {
	baseline := flag.String("baseline", "", "checked-in `go test -bench` output to compare against")
	fresh := flag.String("new", "", "freshly measured `go test -bench` output")
	threshold := flag.Float64("threshold", 1.25, "fail when new/baseline exceeds this factor")
	flag.Parse()
	if *baseline == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -new are required")
		os.Exit(2)
	}
	os.Exit(benchGate(*baseline, *fresh, *threshold))
}

// benchGate diffs two `go test -bench` outputs and returns the process
// exit code: 0 within threshold, 1 on a regression, a baseline row the
// new run did not measure, a changed simulated figure or a grown
// allocation count, 2 on unusable input.
func benchGate(baselinePath, newPath string, threshold float64) int {
	base, err := parseBench(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	cur, err := parseBench(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	if len(base) == 0 || len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines parsed (baseline:", len(base), "new:", len(cur), ")")
		return 2
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	baseSim, err := parseExact(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	curSim, err := parseExact(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	baseAllocs, err := parseMin(baselinePath, "allocs/op")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	curAllocs, err := parseMin(newPath, "allocs/op")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	regressed := regressions(base, cur, names, threshold)
	var missing []string
	for _, name := range names {
		b := base[name]
		n, ok := cur[name]
		if !ok {
			fmt.Printf("%-40s baseline %.3fms, NOT MEASURED\n", name, b/1e6)
			missing = append(missing, name)
			continue
		}
		ratio := n / b
		status := "ok"
		if ratio > threshold {
			status = "REGRESSION"
		}
		fmt.Printf("%-40s %.3fms -> %.3fms (%.2fx) %s\n", name, b/1e6, n/1e6, ratio, status)
	}
	fresh := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := base[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Printf("%-40s new benchmark %.3fms (no baseline)\n", name, cur[name]/1e6)
	}
	changed := simChanges(baseSim, curSim)
	for _, name := range changed {
		fmt.Printf("%-54s %s -> %s CHANGED\n", name,
			strings.Join(baseSim[name], ","), strings.Join(curSim[name], ","))
	}
	grown := allocGrowth(baseAllocs, curAllocs)
	for _, name := range grown {
		fmt.Printf("%-40s %.0f -> %.0f allocs/op GROWN\n", name, baseAllocs[name], curAllocs[name])
	}
	if len(regressed) > 0 {
		fmt.Print(summarize(regressed))
	}
	if len(missing) > 0 {
		fmt.Printf("\nBaseline rows not measured (rename or remove them in the baseline deliberately):\n  %s\n",
			strings.Join(missing, "\n  "))
	}
	if len(regressed) > 0 || len(missing) > 0 || len(changed) > 0 || len(grown) > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond %.0f%% threshold, %d baseline row(s) not measured, %d simulated figure change(s), %d allocation count(s) grown beyond %.0f%%\n",
			len(regressed), (threshold-1)*100, len(missing), len(changed), len(grown), (allocSlack-1)*100)
		return 1
	}
	fmt.Println("benchdiff: within threshold")
	return 0
}

// simChanges returns, sorted, the "name unit" keys whose exact values
// differ between two outputs that both report them.
func simChanges(base, cur map[string][]string) []string {
	var out []string
	for name, b := range base {
		if c, ok := cur[name]; ok && !slices.Equal(b, c) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// allocGrowth returns, sorted, the benchmarks that report allocs/op in
// both outputs and whose new fewest exceeds the baseline's fewest by
// more than allocSlack.
func allocGrowth(base, cur map[string]float64) []string {
	var out []string
	for name, b := range base {
		if c, ok := cur[name]; ok && c > b*allocSlack {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// regression is one benchmark whose new minimum exceeded the threshold.
type regression struct {
	name     string
	old, new float64 // ns/op
}

// regressions collects the rows that fail the gate, sorted worst-first
// so the biggest offender leads the summary.
func regressions(base, cur map[string]float64, names []string, threshold float64) []regression {
	var out []regression
	for _, name := range names {
		n, ok := cur[name]
		if !ok {
			continue
		}
		if b := base[name]; n/b > threshold {
			out = append(out, regression{name: name, old: b, new: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].new/out[i].old > out[j].new/out[j].old })
	return out
}

// summarize renders the regressed-rows block appended after the full
// per-row listing: only the failures, with old/new times and the
// percentage slowdown, so a long CI log still ends with the verdict.
func summarize(regressed []regression) string {
	var sb strings.Builder
	sb.WriteString("\nRegressed rows:\n")
	for _, r := range regressed {
		sb.WriteString(fmt.Sprintf("  %-40s %.3fms -> %.3fms (+%.1f%%)\n",
			r.name, r.old/1e6, r.new/1e6, (r.new/r.old-1)*100))
	}
	return sb.String()
}
