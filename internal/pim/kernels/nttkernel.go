package kernels

import (
	"errors"

	"repro/internal/limb32"
	"repro/internal/modring"
	"repro/internal/nt"
	"repro/internal/pim"
)

// NTT-on-PIM: the optimization the paper explicitly defers (§3: "We do
// not incorporate Number Theoretic Transform (NTT) techniques to optimize
// multiplication. We leave them for future work."). This kernel
// implements that future work for 32-bit NTT-friendly moduli: negacyclic
// polynomial multiplication in O(n·log n) butterflies instead of O(n²)
// coefficient products.
//
// Cost model: the DPU still lacks a 32-bit multiplier, so every modular
// product in a butterfly charges OpMul32 (shift-and-add) — three per
// butterfly with Barrett reduction. The ablation benches compare this
// against the schoolbook kernel and against schoolbook+native-multiplier
// to separate the algorithmic from the architectural fix.

// NTTPlan holds the host-precomputed twiddle factors a DPU kernel loads
// as constants (real UPMEM kernels ship them in MRAM).
type NTTPlan struct {
	N    int
	Q    uint64 // 32-bit NTT-friendly prime
	ring *modring.Ring

	psiRev    []uint32 // forward twiddles, bit-reversed order
	psiInvRev []uint32 // inverse twiddles
	nInv      uint32
}

// NewNTTPlan precomputes twiddles for degree n modulo the 32-bit prime q
// (q ≡ 1 mod 2n required).
func NewNTTPlan(q uint64, n int) (*NTTPlan, error) {
	if q >= 1<<31 {
		return nil, errors.New("kernels: NTT plan needs a sub-2³¹ modulus (32-bit DPU words)")
	}
	r := modring.New(q)
	psi, err := nt.RootOfUnity(q, n)
	if err != nil {
		return nil, err
	}
	psiInv := r.Inv(psi)
	logN := 0
	for 1<<logN < n {
		logN++
	}
	plan := &NTTPlan{
		N: n, Q: q, ring: r,
		psiRev:    make([]uint32, n),
		psiInvRev: make([]uint32, n),
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
		j := 0
		for b := 0; b < logN; b++ {
			j = j<<1 | (i>>b)&1
		}
		plan.psiRev[i] = uint32(powers[j])
		plan.psiInvRev[i] = uint32(powersInv[j])
	}
	plan.nInv = uint32(r.Inv(uint64(n)))
	return plan, nil
}

// chargeMulMods charges k 32-bit modular products as the DPU executes
// them: one software 32×32 multiply plus a Barrett-style reduction (two
// more multiplies) and corrections.
func chargeMulMods(m limb32.Meter, k int) {
	m.Tick(limb32.OpMul32, 3*k) // product + 2 Barrett multiplies
	m.Tick(limb32.OpShift, 2*k)
	m.Tick(limb32.OpSub, k)
	m.Tick(limb32.OpLogic, k)
}

// chargeButterflies charges k butterflies: a modular product, a modular
// add and a modular subtract (each an add or sub plus the correcting
// compare), and the loads and stores around them.
func chargeButterflies(ctx *pim.TaskletCtx, k int) {
	m := ctx.Meter()
	chargeMulMods(m, k)
	m.Tick(limb32.OpAdd, k)
	m.Tick(limb32.OpSub, k)
	m.Tick(limb32.OpLogic, 2*k)
	ctx.ChargeInstr(int64(4 * k))
}

// forwardInPlace runs the Cooley–Tukey NTT on a WRAM buffer and charges
// the tasklet for its butterflies.
func (p *NTTPlan) forwardInPlace(a []uint32, ctx *pim.TaskletCtx) {
	n, r := p.N, p.ring
	step := n
	butterflies := 0
	for m := 1; m < n; m <<= 1 {
		step >>= 1
		for i := 0; i < m; i++ {
			w := uint64(p.psiRev[m+i])
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				u := uint64(a[j])
				v := r.Mul(uint64(a[j+step]), w)
				a[j] = uint32(r.Add(u, v))
				a[j+step] = uint32(r.Sub(u, v))
			}
			butterflies += step
		}
	}
	chargeButterflies(ctx, butterflies)
}

// inverseInPlace runs the Gentleman–Sande inverse NTT and the final n⁻¹
// scaling.
func (p *NTTPlan) inverseInPlace(a []uint32, ctx *pim.TaskletCtx) {
	n, r := p.N, p.ring
	step := 1
	butterflies := 0
	for m := n >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			w := uint64(p.psiInvRev[m+i])
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				u := uint64(a[j])
				v := uint64(a[j+step])
				a[j] = uint32(r.Add(u, v))
				a[j+step] = uint32(r.Mul(r.Sub(u, v), w))
			}
			butterflies += step
		}
		step <<= 1
	}
	for i := range a {
		a[i] = uint32(r.Mul(uint64(a[i]), uint64(p.nInv)))
	}
	chargeButterflies(ctx, butterflies)
	chargeMulMods(ctx.Meter(), n)
}

// NTTMulLayout describes one DPU's shard of an NTT-based polynomial
// multiplication: Pairs polynomial pairs, 1-limb coefficients, in the
// plan's MRAM layout — pair p's operands at p·N and (Pairs+p)·N, its
// product at (2·Pairs+p)·N.
type NTTMulLayout struct {
	Plan  *NTTPlan
	Pairs int
}

// NTTPolyMul returns the tasklet program computing negacyclic products by
// forward NTT × 2, pointwise multiply, inverse NTT. Tasklets split the
// polynomial pairs (each transform is a sequential dependency chain, so
// the natural parallel grain is the pair).
func NTTPolyMul(l NTTMulLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		n := l.Plan.N
		if 3*n > pim.WRAMWords {
			return errors.New("kernels: polynomial too large for WRAM NTT")
		}
		start, end := pim.Partition(l.Pairs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		wram, err := ctx.WRAM(2 * n)
		if err != nil {
			return err
		}
		bufA, bufB := wram[:n], wram[n:]
		for p := start; p < end; p++ {
			ctx.MRAMRead(p*n, bufA)
			ctx.MRAMRead((l.Pairs+p)*n, bufB)
			l.Plan.forwardInPlace(bufA, ctx)
			l.Plan.forwardInPlace(bufB, ctx)
			for i := 0; i < n; i++ {
				bufA[i] = uint32(l.Plan.ring.Mul(uint64(bufA[i]), uint64(bufB[i])))
			}
			chargeMulMods(ctx.Meter(), n)
			ctx.ChargeInstr(int64(2 * n)) // per product: loop index + branch
			l.Plan.inverseInPlace(bufA, ctx)
			ctx.MRAMWrite((2*l.Pairs+p)*n, bufA)
		}
		return nil
	}
}
