// Package ntt implements the in-place negacyclic Number Theoretic
// Transform over NTT-friendly primes (p ≡ 1 mod 2n), using the
// Cooley–Tukey / Gentleman–Sande butterfly pair with Shoup multiplication
// and Harvey-style lazy reduction: butterfly values are allowed to grow to
// 4q (forward) / 2q (inverse) and are only brought back below q at the
// end of a transform, saving the per-butterfly conditional subtractions.
//
// The transform kernels are written for the scalar hot path: two
// butterfly layers are merged into one radix-4 memory pass (halving the
// load/store traffic of a transform), the inner loops run over re-sliced
// quarters so the compiler drops every bounds check, and the lazy entry
// points (ForwardLazy, InverseLazy, PointwiseMulLazy) let fused pipelines
// such as Convolve and the key-switching accumulators skip the final
// reduction pass of each individual op and reduce once at the end.
//
// Lazy-bound contract (q < 2⁶², so 4q < 2⁶⁴ never wraps):
//
//   - Forward/Inverse take values < q and produce values < q.
//   - ForwardLazy takes values < q (or lazily, < 4q: the first layer folds)
//     and produces values < 4q.
//   - InverseLazy takes values < 2q and produces values < 2q.
//   - PointwiseMulLazy takes operands < 2⁶² and produces values < q
//     (the Barrett reduction is exact for any 128-bit product).
//
// This is the algorithmic core of the CPU-SEAL baseline in the paper
// (§4.1): SEAL "leverages the Residue Number System (RNS) and the Number
// Theoretic Transform (NTT) implementations for faster operations". The
// paper's own PIM kernels deliberately do NOT use the NTT (§3: "We do not
// incorporate Number Theoretic Transform techniques ... we leave them for
// future work"), which is why SEAL overtakes PIM on multiplication-heavy
// workloads.
package ntt

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/modring"
	"repro/internal/nt"
)

// Table holds the precomputed twiddle factors for one (prime, n) pair.
type Table struct {
	N    int
	R    *modring.Ring
	nInv uint64 // n^{-1} mod q

	psiRev      []uint64 // psi^bitrev(i), CT order
	psiRevShoup []uint64
	psiInvRev   []uint64 // psi^{-bitrev(i)}, GS order
	psiInvShoup []uint64
	nInvShoup   uint64

	// n⁻¹ folded into the last GS stage (see inverseCore): the final
	// stage's twiddle pre-multiplied by n⁻¹, so the inverse transform
	// needs no separate scaling pass.
	lastW, lastWShoup uint64

	scratch sync.Pool // *[]uint64 buffers of length N for Convolve
}

// tableKey identifies a twiddle table: one per (prime, ring degree) pair.
type tableKey struct {
	Q uint64
	N int
}

// tables is the process-wide table cache. Twiddle construction costs
// O(n log n) modular exponentiations and every (q, n) pair is immutable
// after construction, so all callers — encoders, the double-CRT contexts,
// the SEAL baseline — share one table per pair.
var tables sync.Map // tableKey -> *Table

// GetTable returns the shared twiddle table for (q, n), constructing and
// caching it on first use. Tables are immutable and safe for concurrent
// use.
func GetTable(q uint64, n int) (*Table, error) {
	key := tableKey{q, n}
	if v, ok := tables.Load(key); ok {
		return v.(*Table), nil
	}
	t, err := NewTable(q, n)
	if err != nil {
		return nil, err
	}
	v, _ := tables.LoadOrStore(key, t)
	return v.(*Table), nil
}

// NewTable precomputes twiddles for the negacyclic NTT of size n (a power
// of two) modulo the NTT-friendly prime q.
func NewTable(q uint64, n int) (*Table, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: size %d is not a power of two", n)
	}
	r := modring.New(q)
	psi, err := nt.RootOfUnity(q, n)
	if err != nil {
		return nil, fmt.Errorf("ntt: %w", err)
	}
	psiInv := r.Inv(psi)
	logN := bits.TrailingZeros(uint(n))

	t := &Table{
		N:           n,
		R:           r,
		psiRev:      make([]uint64, n),
		psiRevShoup: make([]uint64, n),
		psiInvRev:   make([]uint64, n),
		psiInvShoup: make([]uint64, n),
	}
	pw, pwInv := uint64(1), uint64(1)
	powers := make([]uint64, n)
	powersInv := make([]uint64, n)
	for i := 0; i < n; i++ {
		powers[i], powersInv[i] = pw, pwInv
		pw = r.Mul(pw, psi)
		pwInv = r.Mul(pwInv, psiInv)
	}
	for i := 0; i < n; i++ {
		j := bitrev(uint(i), logN)
		t.psiRev[i] = powers[j]
		t.psiRevShoup[i] = r.ShoupConst(powers[j])
		t.psiInvRev[i] = powersInv[j]
		t.psiInvShoup[i] = r.ShoupConst(powersInv[j])
	}
	t.nInv = r.Inv(uint64(n))
	t.nInvShoup = r.ShoupConst(t.nInv)
	if n > 1 {
		t.lastW = r.Mul(t.psiInvRev[1], t.nInv)
		t.lastWShoup = r.ShoupConst(t.lastW)
	}
	t.scratch.New = func() any {
		buf := make([]uint64, n)
		return &buf
	}
	return t, nil
}

// getScratch returns a length-N scratch buffer from the table's pool.
func (t *Table) getScratch() *[]uint64 { return t.scratch.Get().(*[]uint64) }

func (t *Table) putScratch(buf *[]uint64) { t.scratch.Put(buf) }

func bitrev(x uint, bits int) uint {
	var r uint
	for i := 0; i < bits; i++ {
		r = r<<1 | (x>>i)&1
	}
	return r
}

// Forward transforms a (length N, coefficients < q) into the NTT domain in
// place, restoring the < q contract with one final reduction pass over the
// lazy transform.
func (t *Table) Forward(a []uint64) {
	t.ForwardLazy(a)
	t.reduce4Q(a)
}

// ForwardScalar is Forward pinned to the scalar kernels, bypassing the
// vector dispatch — the differential-test oracle.
func (t *Table) ForwardScalar(a []uint64) {
	t.ForwardLazyScalar(a)
	t.reduce4Q(a)
}

// reduce4Q folds lazy transform outputs (< 4q) to canonical (< q).
func (t *Table) reduce4Q(a []uint64) {
	q := t.R.Q
	twoQ := 2 * q
	for i, v := range a {
		if v >= twoQ {
			v -= twoQ
		}
		if v >= q {
			v -= q
		}
		a[i] = v
	}
}

// ForwardLazy transforms a into the NTT domain in place, leaving the
// outputs lazily reduced in [0, 4q). Cooley–Tukey, decimation in time, no
// explicit bit reversal (Longa–Naehrig layout). Butterflies run on
// lazily-reduced values (Harvey): u is folded below 2q on read,
// v = MulShoupLazy < 2q, and the outputs u+v and u−v+2q stay below 4q
// (< 2^64 since q < 2^62). Two butterfly layers are merged per memory
// pass: each radix-4 block keeps its four values in registers through
// both layers, so the array is swept ⌈log₂(n)/2⌉ times instead of
// log₂(n). Inputs may themselves be lazy (< 4q): the first layer's fold
// brings them into range.
//
// Callers that need canonical outputs use Forward; consumers that reduce
// anyway (pointwise Barrett products, the 128-bit fused accumulators)
// take the lazy form and save the reduction pass.
func (t *Table) ForwardLazy(a []uint64) {
	t.forwardLazy(a, currentISA())
}

// ForwardLazyScalar is ForwardLazy pinned to the scalar kernels — the
// oracle the vector paths are differentially tested against.
func (t *Table) ForwardLazyScalar(a []uint64) {
	t.forwardLazy(a, isaScalar)
}

// forwardLazy runs the CT passes, dispatching each pass to the widest
// kernel the requested tier supports: AVX-512 for step ≥ 8, the 4-lane
// AVX2 kernel at step == 4 (also on AVX-512 hosts), the transpose-based
// AVX-512 tail at step == 1, scalar otherwise. Pass geometry and
// arithmetic are identical across tiers, so outputs are bit-identical.
func (t *Table) forwardLazy(a []uint64, isa uint32) {
	if len(a) != t.N {
		panic("ntt: Forward length mismatch")
	}
	n := t.N
	q := t.R.Q
	psi, psiS := t.psiRev, t.psiRevShoup
	m := 1
	step := n
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Odd log₂(n): one single-layer pass, then radix-4 the rest.
		step >>= 1
		t.fwdSingleScalar(a, step)
		m = 2
	}
	for ; m < n; m <<= 2 {
		step >>= 2 // distance of the second merged layer; blocks span 4·step
		switch {
		case isa == isaAVX512 && step >= 8:
			fwdPassAVX512(&a[0], &psi[0], &psiS[0], m, step, q)
		case isa != isaScalar && step >= 4:
			fwdPassAVX2(&a[0], &psi[0], &psiS[0], m, step, q)
		case isa == isaAVX512 && step == 1 && m >= 8:
			// m is 4^j or 2·4^j here, so m ≥ 8 implies m % 8 == 0.
			fwdTailAVX512(&a[0], &psi[0], &psiS[0], m, q)
		default:
			t.fwdPassScalar(a, m, step)
		}
	}
}

// fwdSingleScalar is the odd-log₂(n) single-layer CT pass.
func (t *Table) fwdSingleScalar(a []uint64, step int) {
	q := t.R.Q
	twoQ := 2 * q
	w, ws := t.psiRev[1], t.psiRevShoup[1]
	x := a[:step:step]
	y := a[step : 2*step : 2*step]
	for j := 0; j < step && j < len(x) && j < len(y); j++ {
		u := x[j]
		if u >= twoQ {
			u -= twoQ
		}
		xv := y[j]
		qh, _ := bits.Mul64(xv, ws)
		v := xv*w - qh*q
		x[j] = u + v
		y[j] = u + twoQ - v
	}
}

// fwdPassScalar is one merged radix-4 CT pass over all m blocks.
func (t *Table) fwdPassScalar(a []uint64, m, step int) {
	q := t.R.Q
	twoQ := 2 * q
	psi, psiS := t.psiRev, t.psiRevShoup
	{
		for i := 0; i < m; i++ {
			j1 := 4 * i * step
			w1, w1s := psi[m+i], psiS[m+i]
			w2, w2s := psi[2*m+2*i], psiS[2*m+2*i]
			w3, w3s := psi[2*m+2*i+1], psiS[2*m+2*i+1]
			q0 := a[j1 : j1+step : j1+step]
			q1 := a[j1+step : j1+2*step : j1+2*step]
			q2 := a[j1+2*step : j1+3*step : j1+3*step]
			q3 := a[j1+3*step : j1+4*step : j1+4*step]
			for k := 0; k < len(q0) && k < len(q1) && k < len(q2) && k < len(q3); k++ {
				x0, x1, x2, x3 := q0[k], q1[k], q2[k], q3[k]
				// Layer 1 (distance 2·step): (x0,x2) and (x1,x3) on w1.
				if x0 >= twoQ {
					x0 -= twoQ
				}
				if x1 >= twoQ {
					x1 -= twoQ
				}
				qh, _ := bits.Mul64(x2, w1s)
				v2 := x2*w1 - qh*q
				qh, _ = bits.Mul64(x3, w1s)
				v3 := x3*w1 - qh*q
				y0 := x0 + v2
				y2 := x0 + twoQ - v2
				y1 := x1 + v3
				y3 := x1 + twoQ - v3
				// Layer 2 (distance step): (y0,y1) on w2, (y2,y3) on w3.
				if y0 >= twoQ {
					y0 -= twoQ
				}
				if y2 >= twoQ {
					y2 -= twoQ
				}
				qh, _ = bits.Mul64(y1, w2s)
				u1 := y1*w2 - qh*q
				qh, _ = bits.Mul64(y3, w3s)
				u3 := y3*w3 - qh*q
				q0[k] = y0 + u1
				q1[k] = y0 + twoQ - u1
				q2[k] = y2 + u3
				q3[k] = y2 + twoQ - u3
			}
		}
	}
}

// Inverse transforms a back to the coefficient domain in place
// (Gentleman–Sande, decimation in frequency) and divides by N, fully
// reducing the outputs below q.
func (t *Table) Inverse(a []uint64) {
	t.inverseCore(a, currentISA())
	t.reduce2Q(a)
}

// InverseScalar is Inverse pinned to the scalar kernels.
func (t *Table) InverseScalar(a []uint64) {
	t.inverseCore(a, isaScalar)
	t.reduce2Q(a)
}

// reduce2Q folds lazy inverse outputs (< 2q) to canonical (< q).
func (t *Table) reduce2Q(a []uint64) {
	q := t.R.Q
	for i, v := range a {
		if v >= q {
			v -= q
		}
		a[i] = v
	}
}

// InverseLazy is Inverse with the outputs left lazily reduced in [0, 2q).
// Inputs may be lazy themselves (< 2q). Consumers whose next step is a
// Shoup or Barrett multiplication (the base-conversion γ pass, the
// scale-and-round division) accept the lazy form directly and save the
// final reduction pass entirely.
func (t *Table) InverseLazy(a []uint64) {
	t.inverseCore(a, currentISA())
}

// InverseLazyScalar is InverseLazy pinned to the scalar kernels.
func (t *Table) InverseLazyScalar(a []uint64) {
	t.inverseCore(a, isaScalar)
}

// inverseCore runs the GS butterfly layers, two per memory pass; values
// stay below 2q throughout (inputs < 2q tolerated). The n⁻¹ scaling is
// folded into the last stage — its sum output multiplies by n⁻¹, its
// difference output by the pre-combined lastW = ψ⁻¹·n⁻¹ — so no separate
// scaling pass runs; outputs are lazily reduced (< 2q).
func (t *Table) inverseCore(a []uint64, isa uint32) {
	if len(a) != t.N {
		panic("ntt: Inverse length mismatch")
	}
	n := t.N
	q := t.R.Q
	psi, psiS := t.psiInvRev, t.psiInvShoup
	step := 1
	m := n >> 1
	for ; m >= 4; m >>= 2 {
		switch {
		case isa == isaAVX512 && step >= 8:
			invPassAVX512(&a[0], &psi[0], &psiS[0], m, step, q)
		case isa != isaScalar && step >= 4:
			invPassAVX2(&a[0], &psi[0], &psiS[0], m, step, q)
		case isa == isaAVX512 && step == 1 && m>>1 >= 8:
			// m>>1 is 4^j or 2·4^j, so ≥ 8 implies divisible by 8.
			invHeadAVX512(&a[0], &psi[0], &psiS[0], m, q)
		default:
			t.invPassScalar(a, m, step)
		}
		step <<= 2
	}
	t.invFinishScalar(a, m, step, isa)
}

// invPassScalar is one merged radix-4 GS pass: stages m (distance step)
// and m/2 (distance 2·step) over all m>>1 blocks.
func (t *Table) invPassScalar(a []uint64, m, step int) {
	q := t.R.Q
	twoQ := 2 * q
	psi, psiS := t.psiInvRev, t.psiInvShoup
	{
		half := m >> 1
		for i := 0; i < half; i++ {
			j1 := 4 * i * step
			wa0, wa0s := psi[m+2*i], psiS[m+2*i]
			wa1, wa1s := psi[m+2*i+1], psiS[m+2*i+1]
			wb, wbs := psi[half+i], psiS[half+i]
			q0 := a[j1 : j1+step : j1+step]
			q1 := a[j1+step : j1+2*step : j1+2*step]
			q2 := a[j1+2*step : j1+3*step : j1+3*step]
			q3 := a[j1+3*step : j1+4*step : j1+4*step]
			for k := 0; k < len(q0) && k < len(q1) && k < len(q2) && k < len(q3); k++ {
				x0, x1, x2, x3 := q0[k], q1[k], q2[k], q3[k]
				// Layer 1 (distance step): (x0,x1) on wa0, (x2,x3) on wa1.
				s0 := x0 + x1
				if s0 >= twoQ {
					s0 -= twoQ
				}
				d := x0 + twoQ - x1
				qh, _ := bits.Mul64(d, wa0s)
				d0 := d*wa0 - qh*q
				s1 := x2 + x3
				if s1 >= twoQ {
					s1 -= twoQ
				}
				d = x2 + twoQ - x3
				qh, _ = bits.Mul64(d, wa1s)
				d1 := d*wa1 - qh*q
				// Layer 2 (distance 2·step): (s0,s1) and (d0,d1) on wb.
				v := s0 + s1
				if v >= twoQ {
					v -= twoQ
				}
				q0[k] = v
				d = s0 + twoQ - s1
				qh, _ = bits.Mul64(d, wbs)
				q2[k] = d*wb - qh*q
				v = d0 + d1
				if v >= twoQ {
					v -= twoQ
				}
				q1[k] = v
				d = d0 + twoQ - d1
				qh, _ = bits.Mul64(d, wbs)
				q3[k] = d*wb - qh*q
			}
		}
	}
}

// invFinishScalar runs the final merged stages (m == 2 for even
// log₂(n), m == 1 for odd) with the n⁻¹ scaling folded in, dispatching
// the m == 2 case to the vector kernels when the tier allows.
func (t *Table) invFinishScalar(a []uint64, m, step int, isa uint32) {
	q := t.R.Q
	twoQ := 2 * q
	psi, psiS := t.psiInvRev, t.psiInvShoup
	nInv, nInvS := t.nInv, t.nInvShoup
	lw, lws := t.lastW, t.lastWShoup
	switch m {
	case 2:
		// Even log₂(n): the last two stages merge, with the n⁻¹ scaling
		// folded into the second one.
		wa0, wa0s := psi[2], psiS[2]
		wa1, wa1s := psi[3], psiS[3]
		if isa == isaAVX512 && step >= 8 {
			invLast4AVX512(&a[0], step, wa0, wa0s, wa1, wa1s, nInv, nInvS, lw, lws, q)
			return
		}
		if isa != isaScalar && step >= 4 {
			invLast4AVX2(&a[0], step, wa0, wa0s, wa1, wa1s, nInv, nInvS, lw, lws, q)
			return
		}
		q0 := a[0:step:step]
		q1 := a[step : 2*step : 2*step]
		q2 := a[2*step : 3*step : 3*step]
		q3 := a[3*step : 4*step : 4*step]
		for k := 0; k < len(q0) && k < len(q1) && k < len(q2) && k < len(q3); k++ {
			x0, x1, x2, x3 := q0[k], q1[k], q2[k], q3[k]
			s0 := x0 + x1
			if s0 >= twoQ {
				s0 -= twoQ
			}
			d := x0 + twoQ - x1
			qh, _ := bits.Mul64(d, wa0s)
			d0 := d*wa0 - qh*q
			s1 := x2 + x3
			if s1 >= twoQ {
				s1 -= twoQ
			}
			d = x2 + twoQ - x3
			qh, _ = bits.Mul64(d, wa1s)
			d1 := d*wa1 - qh*q
			v := s0 + s1
			qh, _ = bits.Mul64(v, nInvS)
			q0[k] = v*nInv - qh*q
			d = s0 + twoQ - s1
			qh, _ = bits.Mul64(d, lws)
			q2[k] = d*lw - qh*q
			v = d0 + d1
			qh, _ = bits.Mul64(v, nInvS)
			q1[k] = v*nInv - qh*q
			d = d0 + twoQ - d1
			qh, _ = bits.Mul64(d, lws)
			q3[k] = d*lw - qh*q
		}
	case 1:
		// Odd log₂(n): the last stage (distance n/2) runs alone, scaled.
		x := a[:step:step]
		y := a[step : 2*step : 2*step]
		for j := 0; j < step && j < len(x) && j < len(y); j++ {
			u, v := x[j], y[j]
			s := u + v
			qh, _ := bits.Mul64(s, nInvS)
			x[j] = s*nInv - qh*q
			d := u + twoQ - v
			qh, _ = bits.Mul64(d, lws)
			y[j] = d*lw - qh*q
		}
	}
}

// PointwiseMul sets dst[i] = a[i]*b[i] mod q. dst may alias a or b.
// Operands may be lazily reduced (< 4q): each is folded below 2q in a
// register before the Barrett product, keeping the 128-bit value inside
// the reduction's q·2⁶⁴ validity window for every q < 2⁶². Outputs are
// canonical (< q).
func (t *Table) PointwiseMul(dst, a, b []uint64) {
	t.pointwiseMul(dst, a, b, currentISA())
}

// PointwiseMulScalar is PointwiseMul pinned to the scalar kernel.
func (t *Table) PointwiseMulScalar(dst, a, b []uint64) {
	t.pointwiseMul(dst, a, b, isaScalar)
}

func (t *Table) pointwiseMul(dst, a, b []uint64, isa uint32) {
	if len(dst) != t.N || len(a) != t.N || len(b) != t.N {
		panic("ntt: PointwiseMul length mismatch")
	}
	r := t.R
	twoQ := 2 * r.Q
	a = a[:len(dst)]
	b = b[:len(dst)]
	i := 0
	// The Barrett fold needs AVX-512 (mask-register carries); the AVX2
	// tier keeps this kernel scalar (see dispatch.go).
	if isa == isaAVX512 && len(dst) >= 8 {
		i = len(dst) &^ 7
		muHi, muLo := r.BarrettConsts()
		pwMulAVX512(&dst[0], &a[0], &b[0], i, r.Q, muHi, muLo)
	}
	for ; i < len(dst); i++ {
		x, y := a[i], b[i]
		if x >= twoQ {
			x -= twoQ
		}
		if y >= twoQ {
			y -= twoQ
		}
		dst[i] = r.Mul(x, y)
	}
}

// PointwiseMulLazy is the lazy-input entry point of PointwiseMul, fusing
// with ForwardLazy: operands may carry the [0, 4q) transform bound, so a
// Forward→PointwiseMul pipeline pays no reduction pass between the
// stages. Outputs are canonical (< q); dst may alias a or b.
func (t *Table) PointwiseMulLazy(dst, a, b []uint64) {
	t.PointwiseMul(dst, a, b)
}

// Convolve computes the negacyclic convolution dst = a ⊛ b (i.e. the
// product of the polynomials in Z_q[X]/(Xⁿ+1)) without mutating a or b.
// The pipeline is fused through the lazy entry points: both forward
// transforms stay lazy (< 4q), the pointwise Barrett products reduce them
// exactly, and only the inverse transform's final scaling pass restores
// the < q contract — one reduction per coefficient for the whole
// convolution instead of one per stage. Scratch comes from the table's
// pool, so steady-state calls are allocation-free.
func (t *Table) Convolve(dst, a, b []uint64) {
	if len(a) != t.N || len(b) != t.N {
		panic("ntt: Convolve length mismatch")
	}
	ta := t.getScratch()
	tb := t.getScratch()
	copy(*ta, a)
	copy(*tb, b)
	t.ForwardLazy(*ta)
	t.ForwardLazy(*tb)
	t.PointwiseMulLazy(dst, *ta, *tb)
	t.Inverse(dst)
	t.putScratch(ta)
	t.putScratch(tb)
}

// OpCount returns the number of (mulmod, addmod) operation pairs a forward
// or inverse transform performs: (n/2)·log2(n) butterflies. Used by the
// CPU-SEAL performance model.
func (t *Table) OpCount() int {
	return t.N / 2 * bits.TrailingZeros(uint(t.N))
}
