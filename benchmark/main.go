// Command benchmark is this repository's one benchmark: four seeded
// workloads over the whole stack — the served plane, the host
// statistics, the simulated-PIM statistics and tenant churn — each
// checking every output, and a traced pass that times the public
// functions of every layer from outside. README.md defines the
// workloads and metrics; BENCHMARK.json at the repository root lists
// them for the driver.
//
//	go run ./benchmark --workload serve_mixed --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload stats_host --trace 1   # per-layer pass
//	go run ./benchmark --repeat 10                       # spread against the bounds
//	go run ./benchmark --smoke                           # toy parameters, seconds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/hebfv"
	"repro/internal/bfv"
	"repro/internal/cpufeat"
	"repro/internal/ntt"
)

// shape holds the sizes that differ between the full benchmark and the
// smoke pass that keeps the harness tested.
type shape struct {
	host   []hebfv.Option // preset of every context but the PIM-mul one
	pimMul []hebfv.Option // a PIM Mul costs ≈ 4 s of host time at n=1024 and minutes at n=4096

	meanCts, varSamples, linregSamples int
	pimSumCts, pimMuls                 int
	churnTenants                       int
	warmup                             time.Duration
	layerWindow                        time.Duration          // live windows inside the traced pass
	replay                             int                    // requests each worker replays under tracing
	tableBudget                        time.Duration          // time per row of the fixed-iteration tables
	params                             func() *bfv.Parameters // the host preset at the internal/bfv level
	kernelN                            int                    // degree of the PIM polynomial-product kernel row
}

var fullShape = shape{
	host:          []hebfv.Option{hebfv.WithSecurityLevel(109)},
	pimMul:        []hebfv.Option{hebfv.WithSecurityLevel(27)},
	meanCts:       256,
	varSamples:    32,
	linregSamples: 8,
	pimSumCts:     64,
	pimMuls:       3,
	churnTenants:  6,
	warmup:        time.Second,
	layerWindow:   3 * time.Second,
	replay:        150,
	tableBudget:   60 * time.Millisecond,
	params:        bfv.ParamsBatching,
	kernelN:       256,
}

var smokeShape = shape{
	host:          []hebfv.Option{hebfv.WithInsecureToyParameters()},
	pimMul:        []hebfv.Option{hebfv.WithInsecureToyParameters()},
	meanCts:       16,
	varSamples:    4,
	linregSamples: 2,
	pimSumCts:     8,
	pimMuls:       2,
	churnTenants:  4,
	warmup:        50 * time.Millisecond,
	layerWindow:   150 * time.Millisecond,
	replay:        12,
	tableBudget:   2 * time.Millisecond,
	params:        bfv.ParamsToy,
	kernelN:       32,
}

type config struct {
	shape  shape
	smoke  bool // shape is the smoke shape: the numbers mean nothing
	seed   uint64
	window time.Duration
	outDir string
}

type workload struct {
	name string
	why  string
	run  func(config) (*result, error)
}

var workloads = []workload{
	{"serve_mixed", "2 onboarded tenants send add/mul/rotate over loopback HTTP: the only workload where hebfv/serve and wire (de)serialisation do most of the work of an add while a mul stays engine-bound", runMixed},
	{"stats_host", "mean, variance, linear regression and a slot dot product through the hebfv facade on dcrt-native, no HTTP: batched, deferred use of bfv/dcrt/ntt that a serve-only change must leave flat", runHostStats},
	{"stats_pim", "the same mean (Sum of 64) and a Mul on the simulated UPMEM plane, 4 ranks x 64 DPUs: the only workload that runs hepim/pimsched/pim/kernels; carries the paper's add-vs-mul asymmetry", runPIMStats},
	{"serve_churn", "6 tenants share a cache sized for 2, onboarding again on unknown_keyset: the write side of the cache (build, insert, LRU evict, Close) and key-set import that serve_mixed only reads", runChurn},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// result is what one run reports. Correct is false as soon as any
// output check, post-condition or simulated-cost comparison failed.
type result struct {
	Attempted int
	Failed    int
	problems  []error
	Metrics   map[string]float64
	Samples   map[string]int // per-metric sample counts
	Notes     []string
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(err error) { r.problems = append(r.problems, err) }

func (r *result) correct() bool { return r.Failed == 0 && len(r.problems) == 0 }

// setupReps is how often a run sets up: set-up time is reported as the
// median, so that a later change moving work into set-up shows.
const setupReps = 5

// timedSetup builds the workload's state setupReps times, keeps the
// last and returns the median build time in seconds.
func timedSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var kept T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(kept)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		kept = v
	}
	return kept, medianFloat(secs), nil
}

// envelope says where and how a result was measured.
type envelope struct {
	Schema      string  `json:"schema"`
	Workload    string  `json:"workload"`
	Trace       bool    `json:"trace"`
	Smoke       bool    `json:"smoke"`
	Seed        uint64  `json:"seed"`
	WindowSec   float64 `json:"window_s"`
	WarmupSec   float64 `json:"warmup_s"`
	GitRev      string  `json:"git_rev"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	CPUFeatures string  `json:"cpu_features"`
	VectorMode  string  `json:"ntt_vector_mode"`
	Clients     int     `json:"closed_loop_clients"`
}

func newEnvelope(cfg config, name string, trace bool) envelope {
	rev := "unknown" // the driver's checkout is not a git repository
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return envelope{
		Schema: "repro/benchmark/v1", Workload: name, Trace: trace, Smoke: cfg.smoke, Seed: cfg.seed,
		WindowSec: cfg.window.Seconds(), WarmupSec: cfg.shape.warmup.Seconds(),
		GitRev: rev, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUFeatures: cpufeat.Host().String(), VectorMode: ntt.VectorMode(), Clients: workers,
	}
}

// report prints the run for a reader, stores it under outDir, and
// prints the contract's result object as the last line.
func report(env envelope, defs []metricDef, res *result, outDir string) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Printf("# %s seed=%d trace=%v window=%.1fs go=%s nproc=%d gomaxprocs=%d cpu=%s ntt.vector_mode=%s rev=%s\n",
		env.Workload, env.Seed, env.Trace, env.WindowSec, env.GoVersion, env.NumCPU, env.GoMaxProcs, env.CPUFeatures, env.VectorMode, env.GitRev)
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-40s %16.6g %-8s (n=%d)\n", d.Name, v, d.Unit, res.Samples[d.Name])
	}
	for _, p := range res.problems {
		fmt.Println("# PROBLEM:", p)
	}
	line := map[string]any{"correct": res.correct(), "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if env.Trace {
		suffix = "-trace"
	}
	full, err := json.MarshalIndent(map[string]any{"envelope": env, "result": line, "samples": res.Samples, "notes": res.Notes}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result-"+env.Workload+suffix+".json"), full, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// runOne runs one workload, untraced for the end-to-end metrics or as
// the traced per-layer pass, and reports it.
func runOne(cfg config, w workload, trace bool) (*result, error) {
	env := newEnvelope(cfg, w.name, trace)
	defs, run := endToEnd, w.run
	if trace {
		defs, run = perLayer, runLayers
	}
	res, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: empty window", w.name)
	}
	if err := report(env, defs, res, cfg.outDir); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !res.correct() {
		return res, fmt.Errorf("%s: %d failed operations, %d problems", w.name, res.Failed, len(res.problems))
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "one of "+strings.Join(workloadNames(), ", ")+" (default: all, one after the other)")
	seed := flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass")
	repeat := flag.Int("repeat", 0, "run every selected workload this many times on consecutive seeds and print each end-to-end metric's spread against its bound")
	smoke := flag.Bool("smoke", false, "toy parameters and sub-second windows: checks the harness, measures nothing")
	flag.Parse()

	if err := validateDefs(workloadNames(), endToEnd, perLayer); err != nil {
		fatal(err)
	}
	cfg := config{shape: fullShape, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), outDir: filepath.Join("benchmark", "out")}
	if *smoke {
		cfg.shape, cfg.smoke, cfg.window = smokeShape, true, 200*time.Millisecond
	}
	if flag.NArg() > 0 || cfg.window <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("bad arguments: %v", os.Args[1:]))
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
	}
	if *repeat > 0 {
		if err := runRepeat(cfg, selected, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	for _, w := range selected {
		if _, err := runOne(cfg, w, *trace == 1); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runRepeat is the steadiness check: k runs per workload on seeds
// seed..seed+k-1, then for each end-to-end metric the distance between
// the first and third quartile as a share of the median, against the
// metric's bound (the spread should stay below a third of it).
func runRepeat(cfg config, selected []workload, k int) error {
	type row struct {
		workload, metric string
		median, spread   float64
		bound            float64
	}
	var rows []row
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			c := cfg
			c.seed = cfg.seed + uint64(i)
			res, err := runOne(c, w, false)
			if err != nil {
				return err
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name])
			}
		}
		for _, d := range endToEnd {
			med, spread := spreadOf(values[d.Name])
			rows = append(rows, row{w.name, d.Name, med, spread, d.Bound})
		}
	}
	fmt.Printf("\n%-12s %-16s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "(spread = IQR/median over "+fmt.Sprint(k)+" runs)")
	for _, r := range rows {
		verdict := "ok"
		if r.metric != "setup_s" && r.spread > r.bound/3 {
			verdict = "above bound/3"
		}
		fmt.Printf("%-12s %-16s %14.6g %8.2f%% %6.0f%%  %s\n", r.workload, r.metric, r.median, 100*r.spread, 100*r.bound, verdict)
	}
	return nil
}

// spreadOf returns the median and (Q3−Q1)/median, with the quartiles
// of Python's statistics.quantiles(values, n=4) (exclusive method).
func spreadOf(values []float64) (median, spread float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	median = medianFloat(s)
	if len(s) < 2 || median == 0 {
		return median, 0
	}
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return median, (q(0.75) - q(0.25)) / median
}
