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
//	go test ./internal/bfv -run '^$' -bench . -benchtime=1x -count=3 > new.txt
//	benchdiff -baseline .github/bench-baseline.txt -new new.txt -threshold 1.25
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g. "BenchmarkRotateHoisted-8   10   13464356 ns/op ..."
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// parseBench returns the minimum ns/op per benchmark name.
func parseBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := out[m[1]]; !ok || ns < cur {
			out[m[1]] = ns
		}
	}
	return out, sc.Err()
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
// exit code: 0 within threshold, 1 on a regression or a baseline row
// the new run did not measure, 2 on unusable input.
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
	if len(regressed) > 0 {
		fmt.Print(summarize(regressed))
	}
	if len(missing) > 0 {
		fmt.Printf("\nBaseline rows not measured (rename or remove them in the baseline deliberately):\n  %s\n",
			strings.Join(missing, "\n  "))
	}
	if len(regressed) > 0 || len(missing) > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond %.0f%% threshold, %d baseline row(s) not measured\n",
			len(regressed), (threshold-1)*100, len(missing))
		return 1
	}
	fmt.Println("benchdiff: within threshold")
	return 0
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
