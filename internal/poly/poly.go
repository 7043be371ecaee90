// Package poly implements the polynomial quotient ring
// R_q = Z_q[X]/(Xⁿ + 1) over multi-limb coefficient moduli, the algebra
// underlying the BFV scheme (§3 of the paper). Coefficients are stored as
// fixed-width base-2³² limbs — 1, 2, or 4 limbs for the paper's 27-, 54-
// and 109-bit security levels — in one flat slice, mirroring the memory
// layout the PIM kernels stream out of MRAM.
//
// All mutating operations accept a limb32.Meter — a tally, or nil — so
// the PIM simulator can count exact per-class instructions while host
// callers pass nil.
package poly

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/limb32"
)

// Modulus describes a coefficient modulus q together with its limb width
// and precomputed Barrett constant.
type Modulus struct {
	W    int        // limbs per coefficient (1, 2, 4, ...)
	Q    limb32.Nat // q, width W
	QBig *big.Int   // q as a big integer
	Half *big.Int   // floor(q/2), for centered lifts
	BR   *limb32.Barrett
}

// NewModulus builds a Modulus for q > 1. The limb width is the smallest of
// {1, 2, 4} that fits q, or ⌈bits/32⌉ beyond 128 bits — exactly the
// paper's mapping of 27/54/109-bit coefficients to 32/64/128-bit integers.
func NewModulus(q *big.Int) (*Modulus, error) {
	if q.Sign() <= 0 || q.Cmp(big.NewInt(1)) == 0 {
		return nil, errors.New("poly: modulus must exceed 1")
	}
	bits := q.BitLen()
	var w int
	switch {
	case bits <= 32:
		w = 1
	case bits <= 64:
		w = 2
	case bits <= 128:
		w = 4
	default:
		w = (bits + 31) / 32
	}
	qn := limb32.FromBig(q, w)
	return &Modulus{
		W:    w,
		Q:    qn,
		QBig: new(big.Int).Set(q),
		Half: new(big.Int).Rsh(q, 1),
		BR:   limb32.NewBarrett(qn),
	}, nil
}

// Bits returns the bit length of q.
func (m *Modulus) Bits() int { return m.QBig.BitLen() }

// Poly is a polynomial of degree < N with W-limb coefficients, reduced
// modulo q (callers maintain the reduction invariant).
type Poly struct {
	N int
	W int
	C []uint32 // coefficient i occupies C[i*W : (i+1)*W], little-endian
}

// NewPoly returns the zero polynomial with n coefficients of w limbs.
func NewPoly(n, w int) *Poly {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: n=%d is not a power of two", n))
	}
	return &Poly{N: n, W: w, C: make([]uint32, n*w)}
}

// NewPolyBacked wraps an existing backing of exactly n·w words as a
// polynomial, without zeroing it: the contents are whatever the backing
// holds. The zero-copy decode path uses this to deserialize directly
// into pooled memory — it overwrites every word, so a recycled backing
// is indistinguishable from a fresh one. Callers that do not overwrite
// all coefficients must clear the backing themselves.
func NewPolyBacked(n, w int, c []uint32) *Poly {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: n=%d is not a power of two", n))
	}
	if len(c) != n*w {
		panic(fmt.Sprintf("poly: backing has %d words, need %d", len(c), n*w))
	}
	return &Poly{N: n, W: w, C: c}
}

// Coeff returns a mutable view of coefficient i.
func (p *Poly) Coeff(i int) limb32.Nat { return limb32.Nat(p.C[i*p.W : (i+1)*p.W]) }

// Clone returns a deep copy.
func (p *Poly) Clone() *Poly {
	c := &Poly{N: p.N, W: p.W, C: make([]uint32, len(p.C))}
	copy(c.C, p.C)
	return c
}

// Equal reports coefficient-wise equality.
func (p *Poly) Equal(o *Poly) bool {
	if p.N != o.N || p.W != o.W {
		return false
	}
	for i := range p.C {
		if p.C[i] != o.C[i] {
			return false
		}
	}
	return true
}

func checkShapes(dst, a, b *Poly, mod *Modulus) {
	if dst.N != a.N || a.N != b.N || dst.W != mod.W || a.W != mod.W || b.W != mod.W {
		panic("poly: operand shape mismatch")
	}
}

// Add sets dst = a + b in R_q. dst may alias a or b.
func Add(dst, a, b *Poly, mod *Modulus, m limb32.Meter) {
	checkShapes(dst, a, b, mod)
	for i := 0; i < dst.N; i++ {
		limb32.AddMod(dst.Coeff(i), a.Coeff(i), b.Coeff(i), mod.Q, m)
	}
}

// Sub sets dst = a - b in R_q.
func Sub(dst, a, b *Poly, mod *Modulus, m limb32.Meter) {
	checkShapes(dst, a, b, mod)
	for i := 0; i < dst.N; i++ {
		limb32.SubMod(dst.Coeff(i), a.Coeff(i), b.Coeff(i), mod.Q, m)
	}
}

// Neg sets dst = -a in R_q.
func Neg(dst, a *Poly, mod *Modulus, m limb32.Meter) {
	if dst.N != a.N || dst.W != mod.W || a.W != mod.W {
		panic("poly: operand shape mismatch")
	}
	for i := 0; i < dst.N; i++ {
		limb32.NegMod(dst.Coeff(i), a.Coeff(i), mod.Q, m)
	}
}

// MulScalar sets dst = a * s in R_q for a W-limb scalar s < q.
func MulScalar(dst, a *Poly, s limb32.Nat, mod *Modulus, m limb32.Meter) {
	if dst.N != a.N || dst.W != mod.W || a.W != mod.W {
		panic("poly: operand shape mismatch")
	}
	for i := 0; i < dst.N; i++ {
		mod.BR.MulMod(dst.Coeff(i), a.Coeff(i), s, m)
	}
}

// MulNegacyclic sets dst = a * b in R_q by schoolbook multiplication with
// negacyclic wraparound (Xⁿ ≡ −1), accumulating products lazily and
// reducing each output coefficient once. This is the host reference for
// the PIM multiplication kernel; both compute identical values mod q.
// dst must not alias a or b.
func MulNegacyclic(dst, a, b *Poly, mod *Modulus, m limb32.Meter) {
	checkShapes(dst, a, b, mod)
	n, w := dst.N, dst.W
	accW := 2*w + 1 // room for n·q² (n ≤ 2³² covers all paper configs)

	pos := make([]uint32, n*accW) // positive accumulators
	neg := make([]uint32, n*accW) // wrapped (negated) accumulators
	prod := limb32.NewNat(2 * w)

	for i := 0; i < n; i++ {
		ai := a.Coeff(i)
		if ai.IsZero() {
			continue
		}
		for j := 0; j < n; j++ {
			bj := b.Coeff(j)
			if bj.IsZero() {
				continue
			}
			limb32.Mul(prod, ai, bj, m)
			k := i + j
			acc := pos
			if k >= n {
				k -= n
				acc = neg
			}
			accumAdd(acc[k*accW:(k+1)*accW], prod)
		}
	}

	qw := limb32.NewNat(accW)
	copy(qw, mod.Q)
	rp := limb32.NewNat(w)
	rn := limb32.NewNat(w)
	for k := 0; k < n; k++ {
		limb32.Mod(rp, limb32.Nat(pos[k*accW:(k+1)*accW]), mod.Q, m)
		limb32.Mod(rn, limb32.Nat(neg[k*accW:(k+1)*accW]), mod.Q, m)
		limb32.SubMod(dst.Coeff(k), rp, rn, mod.Q, m)
	}
}

// accumAdd adds src (2w limbs) into acc (2w+1 limbs) without metering:
// the accumulation strategy is a host-side optimization; the metered DPU
// kernel charges its own (different) instruction stream.
func accumAdd(acc []uint32, src limb32.Nat) {
	var carry uint64
	for i := 0; i < len(src); i++ {
		s := uint64(acc[i]) + uint64(src[i]) + carry
		acc[i] = uint32(s)
		carry = s >> 32
	}
	for i := len(src); carry != 0 && i < len(acc); i++ {
		s := uint64(acc[i]) + carry
		acc[i] = uint32(s)
		carry = s >> 32
	}
}

// FromBigCoeffs builds a polynomial from arbitrary big-integer
// coefficients, reducing each mod q.
func FromBigCoeffs(coeffs []*big.Int, mod *Modulus) *Poly {
	p := NewPoly(len(coeffs), mod.W)
	t := new(big.Int)
	for i, c := range coeffs {
		t.Mod(c, mod.QBig)
		p.Coeff(i).Set(limb32.FromBig(t, mod.W))
	}
	return p
}

// FromInt64Coeffs builds a polynomial from small signed coefficients
// (e.g. sampler output), reducing each mod q.
func FromInt64Coeffs(coeffs []int64, mod *Modulus) *Poly {
	bigs := make([]*big.Int, len(coeffs))
	for i, c := range coeffs {
		bigs[i] = big.NewInt(c)
	}
	return FromBigCoeffs(bigs, mod)
}

// ToBigCoeffs returns the canonical representatives in [0, q).
func (p *Poly) ToBigCoeffs() []*big.Int {
	out := make([]*big.Int, p.N)
	for i := range out {
		out[i] = p.Coeff(i).Big()
	}
	return out
}

// ToCenteredCoeffs returns the centered representatives in [-q/2, q/2).
func (p *Poly) ToCenteredCoeffs(mod *Modulus) []*big.Int {
	out := p.ToBigCoeffs()
	for _, c := range out {
		if c.Cmp(mod.Half) > 0 {
			c.Sub(c, mod.QBig)
		}
	}
	return out
}

// InfNormCentered returns max |c_i| over the centered representatives —
// the noise magnitude used by the BFV noise-budget estimator.
func (p *Poly) InfNormCentered(mod *Modulus) *big.Int {
	max := new(big.Int)
	for _, c := range p.ToCenteredCoeffs(mod) {
		a := new(big.Int).Abs(c)
		if a.Cmp(max) > 0 {
			max = a
		}
	}
	return max
}
