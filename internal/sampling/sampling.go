// Package sampling provides the randomness used by the BFV scheme: a
// deterministic, seedable ChaCha8 source (reproducible tests and
// benchmarks), uniform sampling modulo word-sized and multi-limb moduli,
// uniform ternary secrets, and a bounded discrete Gaussian error sampler
// with the standard lattice-crypto width σ = 3.2.
package sampling

import (
	"crypto/rand"
	"math"
	mrand "math/rand/v2"

	"repro/internal/limb32"
)

// DefaultSigma is the error standard deviation used by SEAL and most BFV
// deployments.
const DefaultSigma = 3.2

// gaussTailCut bounds the support of the discrete Gaussian at ±⌈6σ⌉,
// beyond which the probability mass is < 2⁻⁵⁰.
const gaussTailCut = 6

// Source is a deterministic random source for all samplers.
type Source struct {
	rng *mrand.Rand
	// Cumulative distribution table for the discrete Gaussian, scaled to
	// [0, 1<<63): cdf[i] = P(|X| <= i-ish); see newGaussTable.
	gauss *gaussTable
}

// NewSource returns a Source seeded from the 32-byte seed (ChaCha8).
func NewSource(seed [32]byte) *Source {
	return &Source{
		rng:   mrand.New(mrand.NewChaCha8(seed)),
		gauss: defaultGauss,
	}
}

// NewSourceFromUint64 is a convenience for tests: the seed is the value
// repeated across the 32 bytes.
func NewSourceFromUint64(seed uint64) *Source {
	var s [32]byte
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			s[i*8+j] = byte(seed >> (8 * j))
		}
	}
	return NewSource(s)
}

// NewSystemSource returns a Source seeded from crypto/rand; it fails only
// if the operating system's entropy source does.
func NewSystemSource() (*Source, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, err
	}
	return NewSource(seed), nil
}

// Uint64N returns a uniform value in [0, n).
func (s *Source) Uint64N(n uint64) uint64 { return s.rng.Uint64N(n) }

// UniformNat returns a uniform value in [0, q) as a width-limb Nat, by
// rejection sampling on q.BitLen() bits (expected < 2 draws).
func (s *Source) UniformNat(q limb32.Nat, width int) limb32.Nat {
	bl := q.BitLen()
	if bl == 0 {
		panic("sampling: zero modulus")
	}
	limbs := (bl + 31) / 32
	topBits := uint(bl - 32*(limbs-1))
	mask := uint32(1)<<topBits - 1
	if topBits == 32 {
		mask = ^uint32(0)
	}
	out := limb32.NewNat(width)
	for {
		for i := 0; i < limbs; i++ {
			out[i] = uint32(s.rng.Uint64())
		}
		out[limbs-1] &= mask
		for i := limbs; i < width; i++ {
			out[i] = 0
		}
		if limb32.Cmp(out, q, nil) < 0 {
			return out
		}
	}
}

// Ternary fills out with independent uniform values from {-1, 0, +1}.
func (s *Source) Ternary(out []int8) {
	for i := range out {
		out[i] = int8(s.rng.Uint64N(3)) - 1
	}
}

// gaussTable is a precomputed inverse-CDF table for the centered discrete
// Gaussian with parameter sigma, supported on [-bound, bound].
type gaussTable struct {
	sigma float64
	bound int
	cdf   []uint64 // cdf[k] = round(2^63 * P(X <= k - bound)), strictly increasing
}

func newGaussTable(sigma float64) *gaussTable {
	bound := int(math.Ceil(gaussTailCut * sigma))
	weights := make([]float64, 2*bound+1)
	var total float64
	for k := -bound; k <= bound; k++ {
		w := math.Exp(-float64(k*k) / (2 * sigma * sigma))
		weights[k+bound] = w
		total += w
	}
	cdf := make([]uint64, 2*bound+1)
	var acc float64
	for i, w := range weights {
		acc += w / total
		v := acc * float64(1<<63)
		if v >= float64(1<<63) {
			cdf[i] = 1 << 63
		} else {
			cdf[i] = uint64(v)
		}
	}
	cdf[2*bound] = 1 << 63 // exact top
	return &gaussTable{sigma: sigma, bound: bound, cdf: cdf}
}

var defaultGauss = newGaussTable(DefaultSigma)

// Gaussian fills out with independent draws from the centered discrete
// Gaussian with σ = DefaultSigma, by inverse-CDF sampling.
func (s *Source) Gaussian(out []int8) {
	for i := range out {
		u := s.rng.Uint64() >> 1 // uniform in [0, 2^63)
		// Binary search the CDF.
		lo, hi := 0, len(s.gauss.cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if s.gauss.cdf[mid] <= u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = int8(lo - s.gauss.bound)
	}
}
