package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// PIMModel extrapolates the cycle-level simulator to paper scale. At
// construction it runs the real kernels at small sizes on a single
// simulated DPU and extracts:
//
//   - addition: cycles are linear in the coefficient count (slope +
//     intercept measured at two sizes);
//   - multiplication: cycles per polynomial pair are quadratic in N
//     (schoolbook), fitted exactly through three measured sizes.
//
// Because the fit uses the same kernels the simulator executes, analytic
// and simulated cycle counts agree to within the partition-rounding noise
// (validated in tests), and paper-scale points (e.g. 327,680 ciphertexts,
// which would take hours to simulate functionally) are exact
// extrapolations of the same cost function.
type PIMModel struct {
	Cfg pim.SystemConfig

	addSlope     map[int]float64 // per-coefficient cycles by width
	addIntercept map[int]float64
	mulQuad      map[int][3]float64 // per-pair cycles = a·n² + b·n + c, by width
}

// NewPIMModel builds and calibrates a PIM model for the given system
// configuration (tasklet count and cost model matter; DPU count is used
// analytically).
func NewPIMModel(cfg pim.SystemConfig) (*PIMModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &PIMModel{
		Cfg:          cfg,
		addSlope:     map[int]float64{},
		addIntercept: map[int]float64{},
		mulQuad:      map[int][3]float64{},
	}
	for _, w := range []int{1, 2, 4} {
		if err := m.calibrateWidth(w); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// paperModulusForWidth returns the paper's modulus with the given limb
// width: the q of the 27-, 54- or 109-bit parameter set.
func paperModulusForWidth(w int) (*poly.Modulus, error) {
	switch w {
	case 1:
		return bfv.ParamsSec27().Q, nil
	case 2:
		return bfv.ParamsSec54().Q, nil
	case 4:
		return bfv.ParamsSec109().Q, nil
	}
	return nil, fmt.Errorf("perfmodel: no paper modulus for width %d", w)
}

func (m *PIMModel) calibrateWidth(w int) error {
	mod, err := paperModulusForWidth(w)
	if err != nil {
		return err
	}
	src := sampling.NewSourceFromUint64(uint64(1000 + w))
	randVec := func(coeffs int) []uint32 {
		out := make([]uint32, coeffs*w)
		src.UniformCoeffs(out, mod.Q)
		return out
	}

	// Addition: two sizes → slope + intercept.
	addCycles := func(coeffs int) (float64, error) {
		sched, err := pimsched.OneDPU(m.Cfg)
		if err != nil {
			return 0, err
		}
		a, b := randVec(coeffs), randVec(coeffs)
		_, rep, err := kernels.RunVectorAddSched(sched, a, b, w, mod.Q)
		if err != nil {
			return 0, err
		}
		return float64(rep.KernelCycles), nil
	}
	c1, err := addCycles(4096)
	if err != nil {
		return err
	}
	c2, err := addCycles(8192)
	if err != nil {
		return err
	}
	m.addSlope[w] = (c2 - c1) / 4096
	m.addIntercept[w] = c1 - m.addSlope[w]*4096

	// Multiplication: three sizes → exact quadratic fit.
	mulCycles := func(n int) (float64, error) {
		sched, err := pimsched.OneDPU(m.Cfg)
		if err != nil {
			return 0, err
		}
		a, b := randVec(n), randVec(n)
		_, rep, err := kernels.RunVectorPolyMulSched(sched, a, b, n, w, mod.Q)
		if err != nil {
			return 0, err
		}
		return float64(rep.KernelCycles), nil
	}
	var ns = [3]float64{32, 64, 128}
	var cs [3]float64
	for i, n := range ns {
		c, err := mulCycles(int(n))
		if err != nil {
			return err
		}
		cs[i] = c
	}
	m.mulQuad[w] = fitQuadratic(ns, cs)
	return nil
}

// fitQuadratic returns (a, b, c) with y = a·x² + b·x + c through three
// points (Lagrange on a Vandermonde system).
func fitQuadratic(x, y [3]float64) [3]float64 {
	d0 := (x[0] - x[1]) * (x[0] - x[2])
	d1 := (x[1] - x[0]) * (x[1] - x[2])
	d2 := (x[2] - x[0]) * (x[2] - x[1])
	a := y[0]/d0 + y[1]/d1 + y[2]/d2
	b := -(y[0]*(x[1]+x[2])/d0 + y[1]*(x[0]+x[2])/d1 + y[2]*(x[0]+x[1])/d2)
	c := y[0]*x[1]*x[2]/d0 + y[1]*x[0]*x[2]/d1 + y[2]*x[0]*x[1]/d2
	return [3]float64{a, b, c}
}

// Name implements Model.
func (m *PIMModel) Name() string { return "PIM" }

// AddCyclesForCoeffs returns one DPU's cycles to add C coefficient pairs.
func (m *PIMModel) AddCyclesForCoeffs(w int, coeffs float64) float64 {
	return m.addIntercept[w] + m.addSlope[w]*coeffs
}

// MulCyclesPerPair returns one DPU's cycles for one N-coefficient
// negacyclic polynomial product.
func (m *PIMModel) MulCyclesPerPair(w, n int) float64 {
	q := m.mulQuad[w]
	nf := float64(n)
	return q[0]*nf*nf + q[1]*nf + q[2]
}

func (m *PIMModel) secs(cycles float64) float64 {
	return cycles/m.Cfg.ClockHz + m.Cfg.LaunchOverheadSec
}

// VectorAddSeconds implements Model: coefficients are spread across all
// DPUs; the slowest shard (ceiling division) sets the kernel time.
func (m *PIMModel) VectorAddSeconds(v VectorSpec) float64 {
	maxShard := math.Ceil(float64(v.Coeffs()) / float64(m.Cfg.NumDPUs))
	return m.secs(m.AddCyclesForCoeffs(v.W, maxShard))
}

// VectorMulSeconds implements Model: polynomial pairs are spread across
// DPUs; pairs split across output-coefficient ranges when Elems is not a
// multiple of the DPU count, so the load is fractional (this matches the
// paper's flat speedups across Fig. 1(b)'s sizes).
func (m *PIMModel) VectorMulSeconds(v VectorSpec) float64 {
	load := float64(v.Elems) / float64(m.Cfg.NumDPUs)
	if load < 1.0/float64(m.Cfg.Tasklets) {
		load = 1.0 / float64(m.Cfg.Tasklets)
	}
	return m.secs(load * m.MulCyclesPerPair(v.W, v.N))
}

// ctAddCycles is one ciphertext addition (2 polynomials) on one DPU.
func (m *PIMModel) ctAddCycles(s StatsSpec) float64 {
	return m.AddCyclesForCoeffs(s.W, float64(ctAddPolys*s.N))
}

// ctMulCycles is one ciphertext multiplication (tensor + relinearization)
// on one DPU.
func (m *PIMModel) ctMulCycles(s StatsSpec) float64 {
	return float64(polyMulsPerCtMul(s.RelinDigits)) * m.MulCyclesPerPair(s.W, s.N)
}

// statsLoad is how many users the busiest DPU serves (one user per DPU up
// to the nominal system size; see calib.go).
func statsLoad(users int) float64 {
	return math.Ceil(float64(users) / float64(pimStatsDPUs))
}

// reductionSeconds models the log-depth on-PIM sum tree that combines
// per-DPU partial results (each round: one ciphertext add + relaunch).
func (m *PIMModel) reductionSeconds(s StatsSpec) float64 {
	active := s.Users
	if active > pimStatsDPUs {
		active = pimStatsDPUs
	}
	rounds := math.Ceil(math.Log2(float64(active)))
	if rounds < 1 {
		rounds = 1
	}
	return rounds * m.secs(m.ctAddCycles(s))
}

// MeanSeconds implements Model: each DPU sums its users' sample
// ciphertexts locally, a log-depth tree combines partials, the host does
// the final scalar division (§3: "polynomial addition performed on the
// UPMEM PIM cores and scalar division performed on the host processor").
func (m *PIMModel) MeanSeconds(s StatsSpec) float64 {
	localAdds := statsLoad(s.Users) * float64(s.CtsPerUser)
	return m.secs(localAdds*m.ctAddCycles(s)) + m.reductionSeconds(s)
}

// VarianceSeconds implements Model: each DPU squares its users' samples
// (homomorphic multiplication of two equal numbers, §4.3) and sums; the
// tree combines; the host divides.
func (m *PIMModel) VarianceSeconds(s StatsSpec) float64 {
	perUser := float64(s.CtsPerUser)*m.ctMulCycles(s) + float64(s.CtsPerUser)*m.ctAddCycles(s)
	return m.secs(statsLoad(s.Users)*perUser) + m.reductionSeconds(s)
}

// LinRegSeconds implements Model: the encrypted vector–matrix product —
// Features ciphertext multiplications plus additions per sample
// ciphertext, all on the PIM cores (§3).
func (m *PIMModel) LinRegSeconds(s StatsSpec) float64 {
	perUser := float64(s.CtsPerUser) * (float64(s.Features)*m.ctMulCycles(s) +
		float64(s.Features)*m.ctAddCycles(s))
	return m.secs(statsLoad(s.Users)*perUser) + m.reductionSeconds(s)
}

var _ Model = (*PIMModel)(nil)
