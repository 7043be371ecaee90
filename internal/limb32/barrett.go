package limb32

// Barrett reduction (HAC, Algorithm 14.42) for fixed multi-limb moduli.
// This is the modular-reduction strategy the PIM multiplication kernels
// use after a Karatsuba coefficient product: two multiplies by a
// precomputed constant replace a division, which the DPU lacks entirely.

// Barrett holds the precomputed state for reducing values < q² modulo q.
type Barrett struct {
	Q  Nat // modulus, k limbs, top limb non-zero
	Mu Nat // floor(b^{2k} / q), k+1 limbs
	k  int
}

// NewBarrett precomputes the Barrett constant for modulus q. The modulus
// width defines k: q's most significant limb must be non-zero (pad the
// caller's value with TrimmedLen first if needed).
func NewBarrett(q Nat) *Barrett {
	k := q.TrimmedLen()
	if k == 0 {
		panic("limb32: Barrett modulus is zero")
	}
	qq := q[:k].Clone()
	// mu = floor(b^{2k} / q): dividend is 1 followed by 2k zero limbs.
	dividend := NewNat(2*k + 1)
	dividend[2*k] = 1
	mu := NewNat(k + 1)
	DivMod(mu, nil, dividend, qq, nil)
	return &Barrett{Q: qq, Mu: mu, k: k}
}

// Reduce sets dst = x mod q for x < q². x must have width 2k; dst must have
// width ≥ k. Charges the Meter for the two constant multiplies and the
// final conditional subtractions, exactly what the DPU kernel executes.
func (br *Barrett) Reduce(dst Nat, x Nat, m Meter) {
	k := br.k
	if len(x) != 2*k {
		panic("limb32: Barrett.Reduce expects a 2k-limb input")
	}

	// q1 = floor(x / b^{k-1}): top k+1 limbs of x.
	q1 := x[k-1:] // k+1 limbs, borrowed view
	m.Tick(OpMove, k+1)

	// q2 = q1 * mu (2k+2 limbs); q3 = floor(q2 / b^{k+1}): top k+1 limbs.
	q2 := NewNat(2*k + 2)
	MulSchoolbook(q2, Nat(q1), br.Mu, m)
	q3 := q2[k+1:] // k+1 limbs

	// r1 = x mod b^{k+1}; r2 = (q3*q) mod b^{k+1}; r = r1 - r2 (mod b^{k+1}).
	r1 := NewNat(k + 1)
	copy(r1, x[:k+1])
	m.Tick(OpMove, k+1)

	prod := NewNat(2*k + 2)
	MulSchoolbook(prod, Nat(q3), padTo(br.Q, k+1), m)
	r2 := prod[:k+1]

	r := NewNat(k + 1)
	Sub(r, r1, Nat(r2), m) // wraparound mod b^{k+1} is exactly HAC step 3

	// At most two final subtractions of q.
	qExt := padTo(br.Q, k+1)
	for Cmp(r, qExt, m) >= 0 {
		Sub(r, r, qExt, m)
	}
	copy(dst, r[:k])
	for i := k; i < len(dst); i++ {
		dst[i] = 0
	}
	m.Tick(OpStore, k)
}

// MulMod sets dst = (a * b) mod q for a, b < q, using a Karatsuba product
// followed by a Barrett reduction — the paper's §3 multiplication pipeline.
// dst, a, b must have width k.
func (br *Barrett) MulMod(dst, a, b Nat, m Meter) {
	prod := NewNat(2 * br.k)
	Mul(prod, a[:br.k], b[:br.k], m)
	br.Reduce(dst, prod, m)
}

// padTo returns n padded with zero limbs to the given width (a copy when
// padding is needed, the original slice otherwise).
func padTo(n Nat, width int) Nat {
	if len(n) >= width {
		return n[:width]
	}
	p := NewNat(width)
	copy(p, n)
	return p
}
