package bench

import (
	"fmt"

	"repro/internal/bfv"
	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// The PIM-at-scale sweep: batched ciphertext addition executed for real
// on the multi-DPU execution plane (internal/pimsched) across a
// DPU-count sweep up to the paper machine's scale. Unlike the Fig. 1/2
// figures — which extrapolate calibrated cost models — every point here
// runs the actual kernels over actual data on the simulator, checks the
// results bit-for-bit against a host oracle, and reports the metered
// transfer/compute split plus both modeled end-to-end times (pipelined
// makespan vs no-overlap serial), so the benefit of overlapping staging
// with compute is a measured quantity at every scale.

// DefaultPIMScaleDPUs is the tracked DPU sweep: single DPU, one rank,
// and whole-rank scales up to the paper machine (2,524 functional DPUs
// → 39 whole ranks; 2,560 = the 40-rank ceiling).
var DefaultPIMScaleDPUs = []int{1, 64, 256, 1024, 2048, 2560}

// PIMScalePoint is one (ring degree, DPU count) cell of the sweep, in
// full precision — what TestPaperValidation pins.
type PIMScalePoint struct {
	N     int // ring degree
	DPUs  int // requested DPU count
	Ranks int // whole ranks of the scheduled topology

	KernelCycles   int64
	KernelSeconds  float64
	CopyInSeconds  float64
	CopyOutSeconds float64
	BytesIn        int64
	BytesOut       int64

	// The two end-to-end modeled times: the pipelined makespan of the
	// overlap-enabled run and the makespan of the overlap-disabled run
	// (== the serial sum of per-chunk phases). Their ratio is the
	// overlap speedup.
	OverlapSeconds float64
	SerialSeconds  float64
	OverlapSpeedup float64

	// BitIdentical reports both runs matched the host oracle word for
	// word — the sweep's correctness gate.
	BitIdentical bool
}

// pimScaleCase is one ring-degree/modulus row of the sweep, the paper's
// n=2048 (54-bit) and n=4096 (109-bit) operating points.
type pimScaleCase struct {
	n   int
	mod *poly.Modulus
}

func pimScaleCases() []pimScaleCase {
	return []pimScaleCase{{2048, bfv.ParamsSec54().Q}, {4096, bfv.ParamsSec109().Q}}
}

// addOracleVec computes the element-wise modular sum on the host — the
// bit-identity reference for every sweep point.
func addOracleVec(a, b []uint32, w int, q limb32.Nat) []uint32 {
	out := make([]uint32, len(a))
	for c := 0; c < len(a)/w; c++ {
		limb32.AddMod(limb32.Nat(out[c*w:(c+1)*w]),
			limb32.Nat(a[c*w:(c+1)*w]), limb32.Nat(b[c*w:(c+1)*w]), q, nil)
	}
	return out
}

// runPIMScalePoint executes the workload twice on fresh systems —
// overlap on and off — over a whole-rank topology fitting dpus.
func runPIMScalePoint(cs pimScaleCase, dpus, ctPairs int, a, b, want []uint32) (PIMScalePoint, error) {
	topo := pimsched.FitTopology(dpus)
	run := func(overlap bool) ([]uint32, *pimsched.Report, error) {
		cfg := pim.DefaultConfig()
		cfg.NumDPUs = topo.NumDPUs()
		sys, err := pim.NewSystem(cfg)
		if err != nil {
			return nil, nil, err
		}
		sched, err := pimsched.New(sys, topo, overlap)
		if err != nil {
			return nil, nil, err
		}
		return kernels.RunVectorAddSched(sched, a, b, cs.mod.W, cs.mod.Q)
	}
	outOn, repOn, err := run(true)
	if err != nil {
		return PIMScalePoint{}, err
	}
	outOff, repOff, err := run(false)
	if err != nil {
		return PIMScalePoint{}, err
	}
	identical := true
	for i := range want {
		if outOn[i] != want[i] || outOff[i] != want[i] {
			identical = false
			break
		}
	}
	return PIMScalePoint{
		N: cs.n, DPUs: dpus, Ranks: topo.Ranks,

		KernelCycles:   repOn.KernelCycles,
		KernelSeconds:  repOn.KernelSeconds,
		CopyInSeconds:  repOn.CopyInSeconds,
		CopyOutSeconds: repOn.CopyOutSeconds,
		BytesIn:        repOn.BytesIn,
		BytesOut:       repOn.BytesOut,

		OverlapSeconds: repOn.MakespanSeconds,
		SerialSeconds:  repOff.MakespanSeconds,
		OverlapSpeedup: repOff.MakespanSeconds / repOn.MakespanSeconds,

		BitIdentical: identical,
	}, nil
}

// MeasurePIMScale runs the DPU sweep: ctPairs ciphertext additions (two
// n-coefficient polynomials each) executed through the pimsched
// execution plane at every DPU count, with overlap on and off. Every point is
// checked bit-for-bit against the host oracle.
func MeasurePIMScale(dpuCounts []int, ctPairs int) (*Figure, []PIMScalePoint, error) {
	if len(dpuCounts) == 0 {
		dpuCounts = DefaultPIMScaleDPUs
	}
	if ctPairs <= 0 {
		ctPairs = 32
	}
	cases := pimScaleCases()
	var points []PIMScalePoint
	fig := &Figure{
		ID:     "pim-scale",
		Title:  fmt.Sprintf("Sharded execution: %d-ciphertext addition across DPU counts", ctPairs),
		XLabel: "n / DPUs",
		Unit:   "ms",
		PaperNote: "metered on the pimsched execution plane (modelled overlap vs serial); " +
			"every point bit-identical to the host oracle",
	}
	for _, cs := range cases {
		coeffs := 2 * cs.n * ctPairs // 2 polynomials per ciphertext
		src := sampling.NewSourceFromUint64(uint64(9000 + cs.n))
		a := randCoeffVec(src, coeffs, cs.mod)
		b := randCoeffVec(src, coeffs, cs.mod)
		want := addOracleVec(a, b, cs.mod.W, cs.mod.Q)
		for _, dpus := range dpuCounts {
			pt, err := runPIMScalePoint(cs, dpus, ctPairs, a, b, want)
			if err != nil {
				return nil, nil, fmt.Errorf("pim-scale n=%d dpus=%d: %w", cs.n, dpus, err)
			}
			if !pt.BitIdentical {
				return nil, nil, fmt.Errorf("pim-scale n=%d dpus=%d: results diverged from the host oracle", cs.n, dpus)
			}
			points = append(points, pt)
			fig.Rows = append(fig.Rows, Row{
				Label: fmt.Sprintf("n=%d dpus=%d", cs.n, dpus),
				Seconds: map[string]float64{
					"pipelined": pt.OverlapSeconds,
					"serial":    pt.SerialSeconds,
					"kernel":    pt.KernelSeconds,
					"transfer":  pt.CopyInSeconds + pt.CopyOutSeconds,
				},
				Annotation: fmt.Sprintf("overlap %.2fx, %d ranks", pt.OverlapSpeedup, pt.Ranks),
			})
		}
	}
	return fig, points, nil
}
