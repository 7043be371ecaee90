// Command hepim-bench regenerates every table and figure of the paper's
// evaluation section. (The repo's own measured performance lives in
// `go run ./benchmark` and the tracked Go benchmarks, not here.)
//
// Usage:
//
//	hepim-bench -fig all          # every modelled paper figure (default)
//	hepim-bench -fig 1a           # one figure: 1a 1b 2a 2b 2c width tasklets transfers energy ablation
//	hepim-bench -fig 1b -csv      # machine-readable output
//	hepim-bench -fig pim-scale    # batched addition run for real on the execution plane across DPU counts
//
// Reproducible chaos runs (fault injection on the simulated PIM system):
//
//	hepim-bench -faults transient=0.1,dead=0.01,straggler=0.05
//	hepim-bench -faults dead=1 -fault-seed 11 -fault-dpus 4   # kill every DPU: exercises backend failover
//
// A chaos run drives one fixed slot-level workload on the pim backend
// under the given per-launch fault rates, checks the decrypted results
// bit-for-bit against the dcrt-native host backend, and prints the
// fault and failover statistics. The same -fault-seed always yields the
// same fault schedule.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/hebfv"
	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hepim-bench:", err)
		os.Exit(1)
	}
}

// run parses args as the command line and writes what it asks for to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hepim-bench", flag.ExitOnError)
	figFlag := fs.String("fig", "all", "figure to regenerate: "+strings.Join(figureIDs, "|")+"|pim-scale|all")
	csvFlag := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	faultsFlag := fs.String("faults", "",
		"run a chaos workload on the pim backend with these fault rates (e.g. transient=0.1,dead=0.01,straggler=0.05)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed of the deterministic fault schedule for -faults")
	faultDPUs := fs.Int("fault-dpus", 8, "number of simulated DPUs for -faults")
	fs.Parse(args)

	if *faultsFlag != "" {
		return chaosRun(w, *faultsFlag, *faultSeed, *faultDPUs, *csvFlag)
	}

	figs, err := collect(*figFlag)
	if err != nil {
		return err
	}
	for i, f := range figs {
		if *csvFlag {
			fmt.Fprint(w, bench.CSV(f))
		} else {
			fmt.Fprint(w, bench.Render(f))
		}
		if i != len(figs)-1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// parseFaultRates decodes "transient=0.1,dead=0.01,straggler=0.05".
// Omitted classes default to rate 0.
func parseFaultRates(spec string) (transient, dead, straggler float64, err error) {
	for _, field := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("bad fault spec %q (want class=rate)", field)
		}
		rate, perr := strconv.ParseFloat(val, 64)
		if perr != nil || rate < 0 || rate > 1 {
			return 0, 0, 0, fmt.Errorf("bad fault rate %q (want a probability in [0,1])", val)
		}
		switch name {
		case "transient":
			transient = rate
		case "dead":
			dead = rate
		case "straggler":
			straggler = rate
		default:
			return 0, 0, 0, fmt.Errorf("unknown fault class %q (have transient, dead, straggler)", name)
		}
	}
	return transient, dead, straggler, nil
}

// chaosRun drives one fixed slot workload on the pim backend under
// injected DPU faults and verifies the decrypted results bit-for-bit
// against the dcrt-native host backend. Toy parameters keep the
// functional simulator fast; the fault schedule is a pure function of
// the seed, so a failing run reproduces exactly.
func chaosRun(w io.Writer, spec string, seed uint64, dpus int, csv bool) error {
	transient, dead, straggler, err := parseFaultRates(spec)
	if err != nil {
		return err
	}
	const workloadSeed = 42
	pimCtx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(workloadSeed),
		hebfv.WithBackend("pim"), hebfv.WithPIMDPUs(dpus),
		hebfv.WithPIMFaultInjection(seed, transient, dead, straggler))
	if err != nil {
		return err
	}
	hostCtx, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSeed(workloadSeed))
	if err != nil {
		return err
	}

	run := func(ctx *hebfv.Context) ([][]uint64, error) {
		a := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
		b := []uint64{2, 7, 1, 8, 2, 8, 1, 8}
		ca, err := ctx.EncryptSlots(a)
		if err != nil {
			return nil, err
		}
		cb, err := ctx.EncryptSlots(b)
		if err != nil {
			return nil, err
		}
		sum, err := ctx.Add(ca, cb)
		if err != nil {
			return nil, err
		}
		prod, err := ctx.Mul(ca, cb)
		if err != nil {
			return nil, err
		}
		rot, err := ctx.RotateRows(sum, 3)
		if err != nil {
			return nil, err
		}
		inner, err := ctx.InnerSum(prod)
		if err != nil {
			return nil, err
		}
		var out [][]uint64
		for _, ct := range []*hebfv.Ciphertext{sum, prod, rot, inner} {
			slots, err := ctx.DecryptSlots(ct)
			if err != nil {
				return nil, err
			}
			out = append(out, slots)
		}
		return out, nil
	}

	got, err := run(pimCtx)
	if err != nil {
		return fmt.Errorf("chaos workload on pim backend: %w", err)
	}
	want, err := run(hostCtx)
	if err != nil {
		return fmt.Errorf("reference workload on %s: %w", hebfv.DefaultBackend, err)
	}
	mismatches := 0
	for step := range want {
		for i := range want[step] {
			if got[step][i] != want[step][i] {
				mismatches++
			}
		}
	}

	stats, _ := pimCtx.PIMStats()
	fo, _ := pimCtx.FailoverStats()
	verdict := "bit-identical"
	if mismatches != 0 {
		verdict = fmt.Sprintf("%d slot mismatches", mismatches)
	}

	rows := [][2]string{
		{"fault-seed", fmt.Sprint(seed)},
		{"dpus", fmt.Sprint(dpus)},
		{"rate-transient", fmt.Sprintf("%.3f", transient)},
		{"rate-dead", fmt.Sprintf("%.3f", dead)},
		{"rate-straggler", fmt.Sprintf("%.3f", straggler)},
		{"verdict", verdict},
		{"transient-faults", fmt.Sprint(stats.TransientFaults)},
		{"dead-dpus", fmt.Sprint(stats.DeadDPUs)},
		{"straggler-hits", fmt.Sprint(stats.StragglerHits)},
		{"retries", fmt.Sprint(stats.Retries)},
		{"redispatches", fmt.Sprint(stats.Redispatches)},
		{"failover-engaged", fmt.Sprint(fo.Engaged)},
	}
	if fo.Engaged {
		rows = append(rows,
			[2]string{"failover-fallback", fo.Fallback},
			[2]string{"failover-failed-ops", fmt.Sprint(fo.FailedOps)},
			[2]string{"failover-trigger", fo.Trigger})
	}
	if csv {
		fmt.Fprintln(w, "stat,value")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%s\n", r[0], r[1])
		}
	} else {
		fmt.Fprintf(w, "Chaos run: pim backend vs %s (4-step slot workload)\n", hebfv.DefaultBackend)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-20s %s\n", r[0], r[1])
		}
	}
	if mismatches != 0 {
		return fmt.Errorf("chaos run diverged: %s", verdict)
	}
	return nil
}

// figureIDs are the calibrated-model figures, in the order -fig all
// prints them.
var figureIDs = []string{"1a", "1b", "2a", "2b", "2c", "width", "tasklets", "transfers", "energy", "ablation"}

func collect(which string) ([]*bench.Figure, error) {
	// The pim-scale sweep runs the async execution plane for real across
	// DPU counts up to the paper machine — metered, oracle-checked, and
	// independent of the calibrated models, so it bypasses the suite and
	// is not part of -fig all.
	if which == "pim-scale" {
		fig, _, err := bench.MeasurePIMScale(nil, 0)
		if err != nil {
			return nil, err
		}
		return []*bench.Figure{fig}, nil
	}
	s, err := bench.NewSuite()
	if err != nil {
		return nil, err
	}
	mk := map[string]func() (*bench.Figure, error){
		"1a":        func() (*bench.Figure, error) { return s.Fig1a(), nil },
		"1b":        func() (*bench.Figure, error) { return s.Fig1b(), nil },
		"2a":        func() (*bench.Figure, error) { return s.Fig2a(), nil },
		"2b":        func() (*bench.Figure, error) { return s.Fig2b(), nil },
		"2c":        func() (*bench.Figure, error) { return s.Fig2c(), nil },
		"width":     func() (*bench.Figure, error) { return s.WidthSweep(), nil },
		"tasklets":  s.TaskletSweep,
		"transfers": func() (*bench.Figure, error) { return s.Transfers(), nil },
		"energy":    s.Energy,
		"ablation":  s.Ablations,
	}
	ids := figureIDs
	if which != "all" {
		if mk[which] == nil {
			return nil, fmt.Errorf("unknown figure %q (have %s, pim-scale, all)", which, strings.Join(figureIDs, ", "))
		}
		ids = []string{which}
	}
	var out []*bench.Figure
	for _, id := range ids {
		f, err := mk[id]()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
