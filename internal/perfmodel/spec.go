// Package perfmodel provides analytic execution-time models for the four
// platforms the paper compares (§4.1): the UPMEM PIM system, a custom CPU
// implementation on an Intel i5-8250U, Microsoft SEAL on the same CPU
// (RNS + NTT), and a custom GPU implementation on an NVIDIA A100.
//
// The PIM model is anchored in the cycle-level simulator: its per-
// coefficient and per-product costs are measured by running the actual
// kernels at small sizes and extrapolating with the kernels' exact
// complexity (linear for addition, quadratic for schoolbook
// multiplication). The baseline models are mechanistic operation counts
// with calibration constants documented in calib.go.
//
// Absolute times are modeled, not measured on the authors' testbed; what
// the models are built to reproduce is the paper's *shape*: who wins, by
// what factor, and where the crossovers fall.
package perfmodel

// VectorSpec describes a §4.2 microbenchmark: Elems ciphertext elements,
// each one polynomial of N coefficients of W limbs (the paper's 27/54/109-
// bit levels use N=1024/2048/4096 with W=1/2/4).
type VectorSpec struct {
	Elems int
	N     int
	W     int
}

// Coeffs is the total coefficient count.
func (v VectorSpec) Coeffs() int { return v.Elems * v.N }

// Bytes is the size of one operand vector.
func (v VectorSpec) Bytes() int { return v.Coeffs() * v.W * 4 }

// StatsSpec describes a §4.3 statistical workload over BFV ciphertexts.
type StatsSpec struct {
	Users      int
	CtsPerUser int // sample ciphertexts a user contributes (a model assumption; internal/bench TestGoldenSpeedups pins its effect)
	Features   int // linear regression feature count (paper: 3)

	N           int // ring degree
	W           int // limbs per coefficient
	RelinDigits int // relinearization digits at the chosen base
}

// PaperStatsSpec returns the §4.3 configuration at the 109-bit level for
// the given user count: 4096-coefficient polynomials, 128-bit coefficients,
// 32 sample ciphertexts per user, 3 features, 4 relin digits (base 2²⁸).
func PaperStatsSpec(users int) StatsSpec {
	return StatsSpec{
		Users:       users,
		CtsPerUser:  32,
		Features:    3,
		N:           4096,
		W:           4,
		RelinDigits: 4,
	}
}

// Model is one platform's execution-time model. All times are seconds.
type Model interface {
	Name() string

	// Microbenchmarks (§4.2): element-wise ciphertext vector addition and
	// ciphertext (polynomial) vector multiplication over raw polynomials.
	VectorAddSeconds(v VectorSpec) float64
	VectorMulSeconds(v VectorSpec) float64

	// Statistical workloads (§4.3) over real BFV ciphertexts (2 polys per
	// ciphertext; multiplications include tensor product + relinearization).
	MeanSeconds(s StatsSpec) float64
	VarianceSeconds(s StatsSpec) float64
	LinRegSeconds(s StatsSpec) float64
}

// polyMulsPerCtMul is the number of R_q polynomial multiplications one
// ciphertext×ciphertext multiply costs on every platform: the tensor
// product of two degree-1 ciphertexts (3 distinct products, with the cross
// term needing two) plus relinearization (2 products per decomposition
// digit). All platforms run the same BFV pipeline.
func polyMulsPerCtMul(relinDigits int) int { return 4 + 2*relinDigits }

// ctAddPolys: a ciphertext addition adds both component polynomials.
const ctAddPolys = 2
