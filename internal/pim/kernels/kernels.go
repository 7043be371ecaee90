// Package kernels contains the DPU programs of the paper's §3: polynomial
// (vector) addition and negacyclic polynomial multiplication over 32-, 64-
// and 128-bit coefficients, written against the pim simulator's tasklet
// API. Each kernel is the direct analogue of the UPMEM C code the paper
// describes: WRAM tiles staged by DMA, add/addc chains for wide addition,
// Karatsuba + Barrett for wide multiplication.
//
// The tasklet programs live in kernels.go, sum.go and nttkernel.go; the
// host side is sched.go, where each Run*Sched driver is a shard plan
// executed by internal/pimsched — the package holds no placement, retry
// or transfer-pricing logic of its own.
package kernels

import (
	"fmt"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// VecAddLayout describes one DPU's shard of an element-wise modular
// vector addition: Coeffs W-limb values at OffA and OffB, result at OffOut.
type VecAddLayout struct {
	W      int
	Coeffs int
	OffA   int
	OffB   int
	OffOut int
	Q      limb32.Nat
	BR     *limb32.Barrett // unused by addition; kept for symmetry
}

// addTile returns the DMA tile size (in coefficients) for a tasklet that
// owns span coefficients of width w: three buffers (a, b, out) must fit
// comfortably in WRAM, and none needs to be longer than the span.
func addTile(w, span int) int {
	t := (pim.WRAMWords / 4) / (3 * w) // quarter of WRAM for data tiles
	return max(1, min(t, span))
}

// VectorAdd returns the tasklet program computing out[i] = (a[i]+b[i]) mod q.
// Each PIM thread performs the element-wise addition of the coefficients
// of two polynomials (paper §3, "Homomorphic Addition"), using the native
// 32-bit add/addc instructions for multi-limb carries.
func VectorAdd(l VecAddLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		start, end := pim.Partition(l.Coeffs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		w := l.W
		tile := addTile(w, end-start)
		buf, err := ctx.WRAM(3 * tile * w)
		if err != nil {
			return err
		}
		bufA, bufB, bufO := buf[:tile*w], buf[tile*w:2*tile*w], buf[2*tile*w:]
		m := ctx.Meter()
		for c := start; c < end; c += tile {
			cnt := min(tile, end-c)
			ctx.MRAMRead(l.OffA+c*w, bufA[:cnt*w])
			ctx.MRAMRead(l.OffB+c*w, bufB[:cnt*w])
			for i := 0; i < cnt; i++ {
				limb32.AddMod(
					limb32.Nat(bufO[i*w:(i+1)*w]),
					limb32.Nat(bufA[i*w:(i+1)*w]),
					limb32.Nat(bufB[i*w:(i+1)*w]),
					l.Q, m)
			}
			ctx.ChargeInstr(int64(2 * cnt)) // per coefficient: loop index + branch
			ctx.MRAMWrite(l.OffOut+c*w, bufO[:cnt*w])
		}
		return nil
	}
}

// PolyMulLayout describes one DPU's shard of a ciphertext vector
// multiplication: Pairs polynomial pairs of degree N with W-limb
// coefficients. Polynomial p's operands live at OffA+p·N·W and
// OffB+p·N·W; the product goes to OffOut+p·N·W.
type PolyMulLayout struct {
	W      int
	N      int
	Pairs  int
	OffA   int
	OffB   int
	OffOut int
	Q      limb32.Nat
	BR     *limb32.Barrett
}

// VectorPolyMul returns the tasklet program computing, for every pair,
// the negacyclic product a·b mod (Xᴺ+1, q) by schoolbook multiplication —
// the paper's §3 "Homomorphic Multiplication" kernel: 32-bit products use
// the compiler's shift-and-add multiply; 64- and 128-bit coefficients are
// split into 32-bit chunks combined with Karatsuba.
//
// Tasklets split the output coefficients of each pair. Operand data is
// staged through WRAM tiles; accumulation happens in WRAM at full
// 2W+1-limb precision, with a single modular reduction per output
// coefficient.
func VectorPolyMul(l PolyMulLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		n, w := l.N, l.W
		accW := 2*w + 1
		k0, k1 := pim.Partition(n, ctx.NumTasklets, ctx.TaskletID)
		if k0 >= k1 {
			return nil
		}
		K := k1 - k0

		// WRAM budget: accumulators (pos+neg), an a-tile, and a b-window.
		tile := (pim.WRAMWords - 2*K*accW) / (4 * w)
		if tile < 1 {
			return fmt.Errorf("kernels: WRAM exhausted (N=%d W=%d tasklets=%d)", n, w, ctx.NumTasklets)
		}
		if tile > n {
			tile = n
		}

		wram, err := ctx.WRAM(2*K*accW + tile*w + (K+tile-1)*w + 4*w)
		if err != nil {
			return err
		}
		carve := func(words int) []uint32 {
			buf := wram[:words:words]
			wram = wram[words:]
			return buf
		}
		accPos := carve(K * accW)
		accNeg := carve(K * accW)
		aTile := carve(tile * w)
		bWin := carve((K + tile - 1) * w)
		prod := limb32.Nat(carve(2 * w))
		rp := limb32.Nat(carve(w))
		rn := limb32.Nat(carve(w))
		// The reduced outputs overwrite the low end of accPos: output k
		// ends at (k+1)·w ≤ k·accW for k ≥ 1, below accumulator k, and by
		// the time it is written accumulators 0..k have been reduced.
		out := accPos[:K*w]
		m := ctx.Meter()

		for p := 0; p < l.Pairs; p++ {
			offA := l.OffA + p*n*w
			offB := l.OffB + p*n*w
			clear(accPos)
			clear(accNeg)

			for i0 := 0; i0 < n; i0 += tile {
				cnt := min(tile, n-i0)
				ctx.MRAMRead(offA+i0*w, aTile[:cnt*w])

				// b indices needed: j = (k−i) mod n for k∈[k0,k1), i∈[i0,i0+cnt)
				// — a contiguous window of length K+cnt−1 starting at
				// (k0−i0−cnt+1) mod n. Read it with at most two DMAs (wrap).
				winLen := K + cnt - 1
				winStart := ((k0-i0-cnt+1)%n + n) % n
				readWindow(ctx, offB, winStart, winLen, n, w, bWin)

				for k := k0; k < k1; k++ {
					for i := i0; i < i0+cnt; i++ {
						j := k - i
						negTerm := false
						if j < 0 {
							j += n
							negTerm = true
						}
						wi := j - winStart
						if wi < 0 {
							wi += n
						}
						ai := limb32.Nat(aTile[(i-i0)*w : (i-i0+1)*w])
						bj := limb32.Nat(bWin[wi*w : (wi+1)*w])
						limb32.Mul(prod, ai, bj, m)
						acc := accPos
						if negTerm {
							acc = accNeg
						}
						accumAdd(acc[(k-k0)*accW:(k-k0+1)*accW], prod, m)
					}
				}
				ctx.ChargeInstr(int64(3 * K * cnt)) // per product: index arithmetic + wrap test + branch
			}

			// Reduce accumulators mod q and write the shard's outputs.
			for k := 0; k < K; k++ {
				limb32.Mod(rp, limb32.Nat(accPos[k*accW:(k+1)*accW]), l.Q, m)
				limb32.Mod(rn, limb32.Nat(accNeg[k*accW:(k+1)*accW]), l.Q, m)
				limb32.SubMod(limb32.Nat(out[k*w:(k+1)*w]), rp, rn, l.Q, m)
			}
			ctx.MRAMWrite(l.OffOut+p*n*w+k0*w, out[:K*w])
		}
		return nil
	}
}

// readWindow reads winLen coefficients of width w starting at circular
// coefficient index start (mod n) from the polynomial at MRAM offset
// base, handling the wraparound with a second DMA.
func readWindow(ctx *pim.TaskletCtx, base, start, winLen, n, w int, dst []uint32) {
	first := winLen
	if start+first > n {
		first = n - start
	}
	ctx.MRAMRead(base+start*w, dst[:first*w])
	if first < winLen {
		ctx.MRAMRead(base, dst[first*w:winLen*w])
	}
}

// accumAdd adds a 2w-limb product into a (2w+1)-limb accumulator with an
// addc chain, charging the tasklet.
func accumAdd(acc []uint32, src limb32.Nat, m limb32.Meter) {
	var carry uint64
	for i := 0; i < len(src); i++ {
		s := uint64(acc[i]) + uint64(src[i]) + carry
		acc[i] = uint32(s)
		carry = s >> 32
	}
	if carry != 0 {
		acc[len(src)] += uint32(carry) // accumulator is sized to never carry out
	}
	m.Tick(limb32.OpLoad, len(src))
	m.Tick(limb32.OpAddC, len(src)+1)
	m.Tick(limb32.OpStore, len(src))
	m.Tick(limb32.OpLoop, len(src))
}
