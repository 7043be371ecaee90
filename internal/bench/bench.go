// Package bench regenerates every table and figure of the paper's
// evaluation (§4): the Fig. 1 microbenchmarks, the Fig. 2 statistical
// workloads, the §4.2 bit-width sweep, the tasklet-saturation observation,
// and three ablations: the multiplication design choices (Karatsuba vs
// schoolbook limbs, a native 32-bit multiplier, the deferred NTT kernel),
// kernel-only vs transfer-inclusive timing, and in-memory compute energy
// vs host-link transfer energy. Paper-scale execution times come from
// the perfmodel layer (the PIM side anchored in the cycle-level
// simulator); rendering produces the same rows/series the paper reports,
// annotated with the PIM-over-CPU speedups the figures carry.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/perfmodel"
	"repro/internal/pim"
)

// Platforms in the paper's plotting order.
var Platforms = []string{"CPU", "PIM", "CPU-SEAL", "GPU"}

// Row is one x-axis point of a figure.
type Row struct {
	Label   string
	Seconds map[string]float64
	// Annotation mirrors the paper's in-figure speedup label (PIM vs CPU).
	Annotation string
}

// Figure is a reproducible table/figure.
type Figure struct {
	ID        string
	Title     string
	XLabel    string
	Unit      string // display unit for times: "ms" or "s"
	PaperNote string
	Rows      []Row
}

// Suite holds the calibrated models for all platforms.
type Suite struct {
	PIM  *perfmodel.PIMModel
	CPU  *perfmodel.CPUModel
	SEAL *perfmodel.SEALModel
	GPU  *perfmodel.GPUModel

	pimNative *perfmodel.PIMModel // lazy: Key Takeaway 2 ablation
}

// NewSuite calibrates the models (runs small kernels on the simulator).
func NewSuite() (*Suite, error) {
	pm, err := perfmodel.NewPIMModel(pim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Suite{
		PIM:  pm,
		CPU:  perfmodel.NewCPUModel(),
		SEAL: perfmodel.NewSEALModel(),
		GPU:  perfmodel.NewGPUModel(),
	}, nil
}

func (s *Suite) vecRow(label string, v perfmodel.VectorSpec, mul bool) Row {
	sec := map[string]float64{}
	if mul {
		sec["CPU"] = s.CPU.VectorMulSeconds(v)
		sec["PIM"] = s.PIM.VectorMulSeconds(v)
		sec["CPU-SEAL"] = s.SEAL.VectorMulSeconds(v)
		sec["GPU"] = s.GPU.VectorMulSeconds(v)
	} else {
		sec["CPU"] = s.CPU.VectorAddSeconds(v)
		sec["PIM"] = s.PIM.VectorAddSeconds(v)
		sec["CPU-SEAL"] = s.SEAL.VectorAddSeconds(v)
		sec["GPU"] = s.GPU.VectorAddSeconds(v)
	}
	return Row{
		Label:      label,
		Seconds:    sec,
		Annotation: fmt.Sprintf("%.1fx", sec["CPU"]/sec["PIM"]),
	}
}

// Fig1a reproduces Figure 1(a): execution time of ciphertext vector
// addition for 128-bit (109-bit) coefficients.
func (s *Suite) Fig1a() *Figure {
	fig := &Figure{
		ID:        "1a",
		Title:     "128-bit ciphertext vector addition",
		XLabel:    "Number of Ciphertexts",
		Unit:      "ms",
		PaperNote: "paper annotations: 21.4x 27.7x 26.5x 25.1x 24.2x; abstract: 50-100x; §4.2: 20-150x",
	}
	for _, n := range []int{20480, 40960, 81920, 163840, 327680} {
		fig.Rows = append(fig.Rows,
			s.vecRow(fmt.Sprintf("%d", n), perfmodel.VectorSpec{Elems: n, N: 4096, W: 4}, false))
	}
	return fig
}

// Fig1b reproduces Figure 1(b): execution time of ciphertext vector
// multiplication for 128-bit coefficients.
func (s *Suite) Fig1b() *Figure {
	fig := &Figure{
		ID:        "1b",
		Title:     "128-bit ciphertext vector multiplication",
		XLabel:    "Number of Ciphertexts",
		Unit:      "s",
		PaperNote: "paper annotations: 41.5x 41.6x 41.4x 33.4x 21.4x; GPU 12-15x faster, CPU-SEAL 2-4x faster than PIM",
	}
	for _, n := range []int{5120, 10240, 20480, 40960, 81920} {
		fig.Rows = append(fig.Rows,
			s.vecRow(fmt.Sprintf("%d", n), perfmodel.VectorSpec{Elems: n, N: 4096, W: 4}, true))
	}
	return fig
}

type statsFn func(perfmodel.Model, perfmodel.StatsSpec) float64

func (s *Suite) statsRow(label string, spec perfmodel.StatsSpec, f statsFn) Row {
	sec := map[string]float64{
		"CPU":      f(s.CPU, spec),
		"PIM":      f(s.PIM, spec),
		"CPU-SEAL": f(s.SEAL, spec),
		"GPU":      f(s.GPU, spec),
	}
	return Row{
		Label:      label,
		Seconds:    sec,
		Annotation: fmt.Sprintf("%.1fx", sec["CPU"]/sec["PIM"]),
	}
}

// Fig2a reproduces Figure 2(a): arithmetic mean.
func (s *Suite) Fig2a() *Figure {
	fig := &Figure{
		ID: "2a", Title: "Arithmetic mean (128-bit coefficients)",
		XLabel: "Users", Unit: "ms",
		PaperNote: "paper annotations: 25.2x 50.6x 101.2x; PIM beats CPU-SEAL 11-50x, GPU 9-34x",
	}
	mean := func(m perfmodel.Model, sp perfmodel.StatsSpec) float64 { return m.MeanSeconds(sp) }
	for _, u := range []int{640, 1280, 2560} {
		fig.Rows = append(fig.Rows, s.statsRow(fmt.Sprintf("%d USERS", u), perfmodel.PaperStatsSpec(u), mean))
	}
	return fig
}

// Fig2b reproduces Figure 2(b): variance.
func (s *Suite) Fig2b() *Figure {
	fig := &Figure{
		ID: "2b", Title: "Variance (128-bit coefficients)",
		XLabel: "Users", Unit: "s",
		PaperNote: "paper annotations: 6.2x 12.4x 24.4x; CPU-SEAL 2-10x and GPU 13-50x faster than PIM",
	}
	variance := func(m perfmodel.Model, sp perfmodel.StatsSpec) float64 { return m.VarianceSeconds(sp) }
	for _, u := range []int{640, 1280, 2560} {
		fig.Rows = append(fig.Rows, s.statsRow(fmt.Sprintf("%d USERS", u), perfmodel.PaperStatsSpec(u), variance))
	}
	return fig
}

// Fig2c reproduces Figure 2(c): linear regression (640 users, 3 features).
func (s *Suite) Fig2c() *Figure {
	fig := &Figure{
		ID: "2c", Title: "Linear regression (640 users, 3 features)",
		XLabel: "Ciphertexts per user", Unit: "s",
		PaperNote: "paper annotations: 7.4x 6.5x; CPU-SEAL 11.4x and GPU 54.9x faster than PIM at 64 cts",
	}
	linreg := func(m perfmodel.Model, sp perfmodel.StatsSpec) float64 { return m.LinRegSeconds(sp) }
	for _, cts := range []int{32, 64} {
		spec := perfmodel.PaperStatsSpec(640)
		spec.CtsPerUser = cts
		fig.Rows = append(fig.Rows, s.statsRow(fmt.Sprintf("%d Ciphertexts", cts), spec, linreg))
	}
	return fig
}

// WidthSweep reproduces the §4.2 text: add and mul speedups across the
// three bit widths (32/64/128-bit integers ↔ 27/54/109-bit coefficients).
func (s *Suite) WidthSweep() *Figure {
	fig := &Figure{
		ID: "width", Title: "Bit-width sweep: PIM speedup over CPU (add / mul)",
		XLabel: "Coefficient width", Unit: "s",
		PaperNote: "§4.2: add 20-150x over CPU; mul 40-50x over CPU at all widths",
	}
	nFor := map[int]int{1: 1024, 2: 2048, 4: 4096}
	for _, w := range []int{1, 2, 4} {
		va := perfmodel.VectorSpec{Elems: 20480, N: nFor[w], W: w}
		vm := perfmodel.VectorSpec{Elems: 5120, N: nFor[w], W: w}
		addRow := s.vecRow(fmt.Sprintf("%d-bit add", 32*w), va, false)
		mulRow := s.vecRow(fmt.Sprintf("%d-bit mul", 32*w), vm, true)
		fig.Rows = append(fig.Rows, addRow, mulRow)
	}
	return fig
}

// TaskletSweep reproduces §4.2 observation 1 on the simulator directly:
// "the performance of PIM implementations saturates at 11 or more PIM
// threads". Rows report simulated kernel cycles of a fixed 128-bit
// addition on one DPU as the tasklet count grows.
func (s *Suite) TaskletSweep() (*Figure, error) {
	fig := &Figure{
		ID: "tasklets", Title: "Tasklet scaling of 128-bit addition (1 DPU, simulated)",
		XLabel: "Tasklets", Unit: "ms",
		PaperNote: "§4.2 observation 1: saturation at >= 11 tasklets",
	}
	cycles, err := taskletSweepCycles([]int{1, 2, 4, 8, 11, 16, 24})
	if err != nil {
		return nil, err
	}
	base := cycles[0].cycles
	for _, pt := range cycles {
		fig.Rows = append(fig.Rows, Row{
			Label: fmt.Sprintf("%d", pt.tasklets),
			Seconds: map[string]float64{
				"PIM": float64(pt.cycles) / 425e6,
			},
			Annotation: fmt.Sprintf("%.2fx vs 1 tasklet", float64(base)/float64(pt.cycles)),
		})
	}
	return fig, nil
}

// Ablations reports the design ablations: Karatsuba vs schoolbook limb
// multiplication, and the hypothetical native 32-bit multiplier of Key
// Takeaway 2.
func (s *Suite) Ablations() (*Figure, error) {
	fig := &Figure{
		ID: "ablation", Title: "Design ablations (128-bit multiplication, N=5120)",
		XLabel: "Variant", Unit: "s",
		PaperNote: "Key Takeaway 2: native 32-bit multiply hardware would lift PIM multiplication",
	}
	v := perfmodel.VectorSpec{Elems: 5120, N: 4096, W: 4}
	baseT := s.PIM.VectorMulSeconds(v)
	fig.Rows = append(fig.Rows, Row{
		Label:      "PIM (shift-and-add mul32, Karatsuba limbs)",
		Seconds:    map[string]float64{"PIM": baseT},
		Annotation: "baseline",
	})

	if s.pimNative == nil {
		cfg := pim.DefaultConfig()
		cfg.Cost = pim.NativeMul32CostModel()
		nm, err := perfmodel.NewPIMModel(cfg)
		if err != nil {
			return nil, err
		}
		s.pimNative = nm
	}
	natT := s.pimNative.VectorMulSeconds(v)
	fig.Rows = append(fig.Rows, Row{
		Label:      "PIM + native 32-bit multiplier (Takeaway 2)",
		Seconds:    map[string]float64{"PIM": natT},
		Annotation: fmt.Sprintf("%.2fx faster", baseT/natT),
	})

	kar, school, err := karatsubaAblationCycles()
	if err != nil {
		return nil, err
	}
	fig.Rows = append(fig.Rows, Row{
		Label:      "limb algorithm: Karatsuba vs schoolbook (per pair, n=64)",
		Seconds:    map[string]float64{"PIM": float64(school) / 425e6},
		Annotation: fmt.Sprintf("Karatsuba %.2fx cheaper", float64(school)/float64(kar)),
	})
	school, nttc, err := nttAblationCycles(256)
	if err != nil {
		return nil, err
	}
	fig.Rows = append(fig.Rows, Row{
		Label:      "PIM + NTT multiplication (paper's future work; n=256, 27-bit)",
		Seconds:    map[string]float64{"PIM": float64(nttc) / 425e6},
		Annotation: fmt.Sprintf("%.1fx faster than schoolbook at equal occupancy", float64(school)/float64(nttc)),
	})
	fig.Rows = append(fig.Rows, Row{
		Label:      "GPU (native 32-bit multipliers) for reference",
		Seconds:    map[string]float64{"GPU": s.GPU.VectorMulSeconds(v)},
		Annotation: fmt.Sprintf("%.1fx faster than PIM baseline", baseT/s.GPU.VectorMulSeconds(v)),
	})
	return fig, nil
}

// columns returns the platforms that appear in any row, in plot order.
func columns(f *Figure) []string {
	var cols []string
	seen := map[string]bool{}
	for _, p := range Platforms {
		for _, r := range f.Rows {
			if _, ok := r.Seconds[p]; ok {
				cols = append(cols, p)
				seen[p] = true
				break
			}
		}
	}
	// Figures outside the paper's four platforms (e.g. the DCRT-vs-
	// schoolbook tracking figure) contribute their columns in row order.
	for _, r := range f.Rows {
		for _, p := range r.sortedExtra(seen) {
			cols = append(cols, p)
			seen[p] = true
		}
	}
	return cols
}

// sortedExtra returns r's column names not yet seen, sorted for
// deterministic rendering.
func (r Row) sortedExtra(seen map[string]bool) []string {
	var extra []string
	for p := range r.Seconds {
		if !seen[p] {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return extra
}

// Transfers is the data-movement ablation: kernel-only vs
// transfer-inclusive timing of the Fig. 1(a) addition workload. It
// quantifies the paper's §2 motivation — when operands must first cross
// the host link, transfers dwarf compute on both accelerators, so PIM's
// advantage presumes the data already lives in PIM-enabled memory (and
// the paper's kernel-only methodology measures exactly that regime).
func (s *Suite) Transfers() *Figure {
	fig := &Figure{
		ID: "transfers", Title: "Data movement vs compute (Fig 1a workload, 20480 ciphertexts)",
		XLabel: "Timing scope", Unit: "ms",
		PaperNote: "§2: HE's low arithmetic intensity makes data movement the bottleneck on processor-centric systems",
	}
	v := perfmodel.VectorSpec{Elems: 20480, N: 4096, W: 4}
	operandBytes := int64(v.Bytes())
	pimKernel := s.PIM.VectorAddSeconds(v)
	gpuKernel := s.GPU.VectorAddSeconds(v)
	cfg := s.PIM.Cfg
	pimIn := float64(2*operandBytes) / cfg.HostToDPUBytesPerSec
	pimOut := float64(operandBytes) / cfg.DPUToHostBytesPerSec
	gpuIn := s.GPU.PCIeSeconds(2 * operandBytes)
	gpuOut := s.GPU.PCIeSeconds(operandBytes)

	fig.Rows = append(fig.Rows,
		Row{
			Label:      "kernel only (paper methodology)",
			Seconds:    map[string]float64{"PIM": pimKernel, "GPU": gpuKernel},
			Annotation: fmt.Sprintf("PIM %.1fx faster", gpuKernel/pimKernel),
		},
		Row{
			Label:   "with cold-data transfers",
			Seconds: map[string]float64{"PIM": pimKernel + pimIn + pimOut, "GPU": gpuKernel + gpuIn + gpuOut},
			Annotation: fmt.Sprintf("transfers are %.0f%% (PIM) / %.0f%% (GPU) of end-to-end",
				100*(pimIn+pimOut)/(pimKernel+pimIn+pimOut),
				100*(gpuIn+gpuOut)/(gpuKernel+gpuIn+gpuOut)),
		},
	)
	return fig
}

// Energy is the energy-split experiment: in-memory compute energy vs the
// host-link transfer energy the PIM paradigm avoids (paper §2's second
// motivation). Values are joules, displayed in the seconds column with
// unit "J".
func (s *Suite) Energy() (*Figure, error) {
	kernelJ, transferJ, err := energyFigures()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "energy", Title: "Energy split of the Fig 1a addition workload (modeled)",
		XLabel: "Component", Unit: "s", // raw numbers; values are joules
		PaperNote: "§2: PIM offsets the energy expense of transferring large ciphertexts",
	}
	fig.Rows = append(fig.Rows,
		Row{
			Label:      "PIM kernel energy (compute + MRAM DMA + static), joules",
			Seconds:    map[string]float64{"PIM": kernelJ},
			Annotation: "data stays in PIM memory",
		},
		Row{
			Label:      "host-link transfer energy if data were cold, joules",
			Seconds:    map[string]float64{"PIM": transferJ},
			Annotation: fmt.Sprintf("%.1fx the kernel energy", transferJ/kernelJ),
		},
	)
	return fig, nil
}

// Render formats a figure as an aligned ASCII table.
func Render(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	if f.PaperNote != "" {
		fmt.Fprintf(&b, "  [paper: %s]\n", f.PaperNote)
	}
	cols := columns(f)
	labelWidth := len(f.XLabel)
	for _, r := range f.Rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelWidth+2, f.XLabel)
	for _, c := range cols {
		fmt.Fprintf(&b, "%14s", c+" ("+f.Unit+")")
	}
	fmt.Fprintf(&b, "  %s\n", "note")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-*s", labelWidth+2, r.Label)
		for _, c := range cols {
			if sec, ok := r.Seconds[c]; ok {
				fmt.Fprintf(&b, "%14s", formatTime(sec, f.Unit))
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		fmt.Fprintf(&b, "  %s\n", r.Annotation)
	}
	return b.String()
}

// CSV formats a figure as comma-separated values.
func CSV(f *Figure) string {
	var b strings.Builder
	cols := columns(f)
	fmt.Fprintf(&b, "%s,%s,annotation\n", f.XLabel, strings.Join(cols, ","))
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%s", r.Label)
		for _, c := range cols {
			if sec, ok := r.Seconds[c]; ok {
				fmt.Fprintf(&b, ",%g", sec)
			} else {
				b.WriteString(",")
			}
		}
		fmt.Fprintf(&b, ",%s\n", r.Annotation)
	}
	return b.String()
}

func formatTime(sec float64, unit string) string {
	switch unit {
	case "ms":
		return fmt.Sprintf("%.3g", sec*1e3)
	default:
		return fmt.Sprintf("%.4g", sec)
	}
}
