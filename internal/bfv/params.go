// Package bfv implements the Brakerski–Fan–Vercauteren somewhat-
// homomorphic encryption scheme — the scheme the paper accelerates on the
// UPMEM PIM system (§1, §3). It provides key generation, encryption,
// decryption, homomorphic addition and multiplication (with tensor
// scaling and relinearization), noise-budget tracking, a batch encoder,
// and binary serialization.
//
// The three parameter presets correspond to the paper's security levels:
// 27-bit coefficients with 1024-coefficient polynomials, 54-bit with 2048,
// and 109-bit with 4096 (§3: "for 27-bit security we need a polynomial
// that has 1024 27-bit coefficients ... we use integers of 32, 64 and 128
// bits respectively").
package bfv

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/dcrt"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// Parameters fixes a BFV instance: ring degree N, coefficient modulus Q,
// plaintext modulus T, and the relinearization decomposition base 2^RelinBaseBits.
type Parameters struct {
	N             int
	Q             *poly.Modulus
	T             uint64
	Delta         *big.Int // ⌊Q/T⌋, the plaintext scaling factor
	RelinBaseBits uint

	relinDigits int // ⌈bits(Q)/RelinBaseBits⌉

	delta0, delta1 uint64 // Delta as two 64-bit words, low first

	// The shared double-CRT context (see attachDCRT), built with the
	// parameter set so evaluator operations read a field instead of
	// hashing the modulus string.
	dcrtCtx  *dcrt.Context
	dcrtSubK int // sub-basis length for key-switching accumulators
}

// NewParameters validates and assembles a parameter set. It fails for a
// modulus the double-CRT backend cannot serve (dcrt.NewContext: an even
// q, a 63/64-bit q, a q above 2¹²⁴, or one sharing a factor with a basis
// prime); every paper modulus and the toy modulus qualify.
func NewParameters(n int, q *big.Int, t uint64, relinBaseBits uint) (*Parameters, error) {
	if n <= 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("bfv: N=%d must be a power of two > 1", n)
	}
	if t < 2 {
		return nil, errors.New("bfv: plaintext modulus must be >= 2")
	}
	if q.Cmp(new(big.Int).SetUint64(4*t)) < 0 {
		return nil, errors.New("bfv: coefficient modulus too small for plaintext modulus")
	}
	if q.Cmp(big.NewInt(int64(sampling.GaussianBound()))) <= 0 {
		// Samples enter R_q as v or q − |v| (signedWords), which needs |v| < q.
		return nil, errors.New("bfv: coefficient modulus must exceed the error bound")
	}
	if relinBaseBits == 0 || relinBaseBits > 32 {
		return nil, errors.New("bfv: relinearization base must be 1..32 bits")
	}
	mod, err := poly.NewModulus(q)
	if err != nil {
		return nil, err
	}
	delta := new(big.Int).Div(q, new(big.Int).SetUint64(t))
	digits := (q.BitLen() + int(relinBaseBits) - 1) / int(relinBaseBits)
	par := &Parameters{
		N:             n,
		Q:             mod,
		T:             t,
		Delta:         delta,
		RelinBaseBits: relinBaseBits,
		relinDigits:   digits,
		delta0:        delta.Uint64(),
		delta1:        new(big.Int).Rsh(delta, 64).Uint64(),
	}
	if err := attachDCRT(par); err != nil {
		return nil, err
	}
	return par, nil
}

// The paper's moduli: the largest primes below 2^27, 2^54 and 2^109.
const (
	prime27  = "134217689"
	prime54  = "18014398509481951"
	prime109 = "649037107316853453566312041152481"
)

func mustParams(n int, qs string, t uint64, base uint) *Parameters {
	q, ok := new(big.Int).SetString(qs, 10)
	if !ok {
		panic("bfv: bad modulus literal")
	}
	p, err := NewParameters(n, q, t, base)
	if err != nil {
		panic(err)
	}
	return p
}

// ParamsSec27 is the paper's 27-bit security level: N=1024, 27-bit q,
// coefficients held in one 32-bit word. Supports homomorphic addition;
// the noise headroom is too small for multiplication (the paper's PIM
// microbenchmarks likewise treat multiplication as a raw-throughput
// experiment at this level).
func ParamsSec27() *Parameters { return mustParams(1024, prime27, 16, 9) }

// ParamsSec54 is the 54-bit level: N=2048, 54-bit q, two 32-bit words per
// coefficient. Supports addition chains and a shallow multiplication.
func ParamsSec54() *Parameters { return mustParams(2048, prime54, 16, 18) }

// ParamsSec109 is the 109-bit level: N=4096, 109-bit q, four 32-bit words
// per coefficient. Supports multiplication with comfortable noise margin.
func ParamsSec109() *Parameters { return mustParams(4096, prime109, 16, 28) }

// ParamsToy is a deliberately small instance (N=64, 60-bit q) for fast
// functional tests. It offers no security.
func ParamsToy() *Parameters { return mustParams(64, "1152921504606846883", 16, 20) }

// ParamsBatching returns a parameter set whose plaintext modulus 65537
// supports CRT batching (t ≡ 1 mod 2N) at the 109-bit level.
func ParamsBatching() *Parameters { return mustParams(4096, prime109, 65537, 28) }

// RelinDigits returns the number of base-2^RelinBaseBits digits used to
// decompose a ciphertext polynomial during relinearization.
func (p *Parameters) RelinDigits() int { return p.relinDigits }

// String summarizes the parameter set.
func (p *Parameters) String() string {
	return fmt.Sprintf("BFV{N=%d, |q|=%d bits (W=%d), t=%d, relin base=2^%d}",
		p.N, p.Q.Bits(), p.Q.W, p.T, p.RelinBaseBits)
}
