// Package kernels contains the DPU programs of the paper's §3: polynomial
// (vector) addition and negacyclic polynomial multiplication over 32-, 64-
// and 128-bit coefficients (and the 256-bit lift a PIM Mul's tensor
// products run under), written against the pim simulator's tasklet API. Each kernel is the direct analogue of the UPMEM C code the paper
// describes: WRAM tiles staged by DMA, add/addc chains for wide addition,
// schoolbook products (Karatsuba for 64- and 128-bit coefficients)
// accumulated at full width and reduced once by limb32.Mod.
//
// The host simulates each kernel's arithmetic a run of coefficients at a
// time, in bodies that charge the tasklet exactly the tally the limb32
// routines would, once rather than per coefficient: addRun for the two
// add kernels (a word-level body at 4 limbs, the width every PIM Sum
// runs) and productRunFor's bodies for the product kernel (word-level at
// 1 and 8 limbs). Other widths call limb32 itself.
//
// The tasklet programs live in kernels.go, sum.go and nttkernel.go; the
// host side is sched.go, where each Run*Sched driver is a shard plan
// executed by internal/pimsched — the package holds no placement, retry
// or transfer-pricing logic of its own.
package kernels

import (
	"fmt"
	"math/bits"

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
// 32-bit add/addc instructions for multi-limb carries. The additions run
// through addRun, which charges their tally once per tasklet.
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
		run := newAddRun(l.Q)
		for c := start; c < end; c += tile {
			cnt := min(tile, end-c)
			ctx.MRAMRead(l.OffA+c*w, bufA[:cnt*w])
			ctx.MRAMRead(l.OffB+c*w, bufB[:cnt*w])
			run.add(bufO[:cnt*w], bufA[:cnt*w], bufB[:cnt*w], m)
			ctx.ChargeInstr(int64(2 * cnt)) // per coefficient: loop index + branch
			ctx.MRAMWrite(l.OffOut+c*w, bufO[:cnt*w])
		}
		run.charge(m)
		return nil
	}
}

// An addRun is the add kernels' run body: it sets dst_t = (a_t + b_t)
// mod q for every W-limb coefficient t of a run, computing and charging
// exactly what limb32.AddMod would, coefficient by coefficient. dst may
// alias a (VectorSum accumulates in place) or be separate (VectorAdd).
//
// W = 4, the 109-bit preset's width that every PIM Sum runs, has a
// word-level body: a branch-free bits.Add64/bits.Sub64 pair per
// coefficient with a mask select, as poly.addW4 does on the host. It
// counts AddMod's tally in locals, and charge hands it to the tasklet
// once: per sum the 4-limb add chain, the limbs the ≥ q compare
// examines (none after a carry-out, else one per limb down to the
// highest limb where the sum and q differ, all four when they are
// equal) and the 4-limb subtract chain when the sum reduces. A tally is
// order-free, so charging it once changes no figure. Other widths call
// limb32.AddMod itself: no workload runs them hot.
type addRun struct {
	q      limb32.Nat
	q0, q1 uint64 // q's two words, for the W = 4 body

	sums, reduced, examined int // the W = 4 body's tally, for charge
}

func newAddRun(q limb32.Nat) addRun {
	r := addRun{q: q}
	if len(q) == 4 {
		r.q0, r.q1 = load128(q)
	}
	return r
}

// add sets dst = (a + b) mod q coefficient-wise over a run.
func (r *addRun) add(dst, a, b []uint32, m limb32.Meter) {
	w := len(r.q)
	if w != 4 {
		for i := 0; i < len(dst); i += w {
			limb32.AddMod(dst[i:i+w], a[i:i+w], b[i:i+w], r.q, m)
		}
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	q0, q1 := r.q0, r.q1
	reduced, examined := 0, 0
	for i := 0; i+3 < len(dst); i += 4 {
		x0, x1 := load128(a[i:])
		y0, y1 := load128(b[i:])
		s0, c := bits.Add64(x0, y0, 0)
		s1, c := bits.Add64(x1, y1, c)
		t0, br := bits.Sub64(s0, q0, 0)
		t1, br := bits.Sub64(s1, q1, br)
		red := c | (br ^ 1) // 1 when the sum carried out or is ≥ q
		mask := -red
		store128(dst[i:], s0^(s0^t0)&mask, s1^(s1^t1)&mask)
		reduced += int(red)
		// The compare examines limbs from the top down to the first one
		// where s and q differ: ⌊lz₁₂₈(s ⊕ q)/32⌋ + 1 of them, or all
		// four when s = q; a sum that carried out is never compared.
		lz := bits.LeadingZeros64(s1 ^ q1)
		if lz == 64 {
			lz += bits.LeadingZeros64(s0 ^ q0)
		}
		examined += min(lz>>5+1, 4) &^ -int(c)
	}
	r.sums += len(dst) / 4
	r.reduced += reduced
	r.examined += examined
}

// charge charges m the tally of every W = 4 sum the run has made, as
// limb32.AddMod would have charged each: the add chain per sum, two
// loads and a compare per examined limb, the subtract chain per
// reduction. A tasklet calls it once, after its last add.
func (r *addRun) charge(m limb32.Meter) {
	n, red, ex := r.sums, r.reduced, r.examined
	m.Tick(limb32.OpLoad, 8*(n+red)+2*ex)
	m.Tick(limb32.OpAdd, n)
	m.Tick(limb32.OpAddC, 3*n)
	m.Tick(limb32.OpSub, red)
	m.Tick(limb32.OpSubB, 3*red)
	m.Tick(limb32.OpLogic, ex)
	m.Tick(limb32.OpStore, 4*(n+red))
	m.Tick(limb32.OpLoop, 4*(n+red))
}

// load128 reads four limbs as two 64-bit words, low word first.
func load128(c []uint32) (lo, hi uint64) {
	_ = c[3]
	return uint64(c[0]) | uint64(c[1])<<32, uint64(c[2]) | uint64(c[3])<<32
}

func store128(c []uint32, lo, hi uint64) {
	_ = c[3]
	c[0], c[1], c[2], c[3] = uint32(lo), uint32(lo>>32), uint32(hi), uint32(hi>>32)
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
//
// The host walks a tile one a-coefficient at a time: for coefficient i
// the tasklet's outputs k split at k = i into a run into accNeg (k < i,
// the products that wrap past Xᴺ) and a run into accPos (k ≥ i), and
// along each run the b-window index and the accumulator index both
// advance by one. Each run goes to the width's productRun, which
// charges the tasklet the tally limb32.Mul and accumAdd would for every
// product of the run; the sums are exact and a tally is order-free, so
// visiting the products i-outer instead of k-outer changes neither.
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
		run := productRunFor(w, prod)

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

				for i := i0; i < i0+cnt; i++ {
					// Output k reads window slot k−k0 + i0+cnt−1−i, which
					// holds b_(k−i) mod n.
					ai := aTile[(i-i0)*w : (i-i0+1)*w]
					bi := bWin[(i0+cnt-1-i)*w : (i0+cnt-1-i+K)*w]
					split := min(max(i-k0, 0), K)
					run(accNeg[:split*accW], ai, bi[:split*w], m)
					run(accPos[split*accW:], ai, bi[split*w:], m)
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

// A productRun adds a·b_t into acc_t for every t of one run, where b
// holds consecutive W-limb coefficients and acc the matching (2W+1)-limb
// accumulators, and charges m what limb32.Mul followed by accumAdd
// would for each of those products.
type productRun func(acc, a, b []uint32, m limb32.Meter)

// productRunFor picks the run body for coefficient width w. Widths 1
// (key switching at 27 bits) and 8 (every PIM Mul's tensor products
// under the lift modulus) have word-level bodies; the 2- and 4-limb
// widths no workload multiplies on PIM run limb32.Mul itself, through
// the 2w-limb scratch prod. addRun is the add kernels' counterpart.
func productRunFor(w int, prod limb32.Nat) productRun {
	switch w {
	case 1:
		return mulRun1
	case 8:
		return mulRun8
	}
	accW := 2*w + 1
	return func(acc, a, b []uint32, m limb32.Meter) {
		for t := 0; t < len(acc)/accW; t++ {
			limb32.Mul(prod, a, b[t*w:(t+1)*w], m)
			accumAdd(acc[t*accW:(t+1)*accW], prod, m)
		}
	}
}

// mulRun1 is the 1-limb run: one 32×32 product per output, added into
// the accumulator's low word with the carry into its top limb. The
// tally is data-independent: limb32.Mul loads both factors, multiplies
// and stores two limbs; accumAdd's two-limb addc chain loads, adds
// three times (the top limb included), stores and loops twice.
func mulRun1(acc, a, b []uint32, m limb32.Meter) {
	x := uint64(a[0])
	for t, bt := range b {
		c3 := (*[3]uint32)(acc[3*t:])
		c3[2] += uint32(addPair(c3[:2], x*uint64(bt), 0))
	}
	c := len(b)
	m.Tick(limb32.OpLoad, 4*c)
	m.Tick(limb32.OpMul32, c)
	m.Tick(limb32.OpAddC, 3*c)
	m.Tick(limb32.OpStore, 4*c)
	m.Tick(limb32.OpLoop, 2*c)
}

// mulRun8 is the 8-limb run. Each product is formed the way
// limb32.MulSchoolbook forms it, one row per nonzero 32-bit limb a_r of
// a, but a word at a time: row r adds (a_r ≪ 32·(r&1))·b, four 64×64
// products, at word r≫1 of the running product d0..d7. The rows are
// written out so the eight words stay in registers.
//
// MulSchoolbook's tally is fixed by a's zero limbs (skipped, with
// rows = 8 − skipped and steps = 8·rows) plus one ripple per row whose
// carry out of the row is nonzero. Before row r the running product is
// below 2^(32(r+8)), so that carry is exactly limb r+8 of the product
// after the row: word r≫1+4 for an even r, its high half for an odd
// one. accumAdd's 16-limb chain adds a constant 16 loads, 17 addc, 16
// stores and 16 loop trips per product.
func mulRun8(acc, a, b []uint32, m limb32.Meter) {
	var x [8]uint64 // row r's multiplier, a_r ≪ 32·(r&1)
	rows := 0
	for r, ar := range a[:8] {
		x[r] = uint64(ar) << (32 * (r & 1))
		if ar != 0 {
			rows++
		}
	}
	ripples := 0
	for t := 0; t < len(b)/8; t++ {
		bt := (*[8]uint32)(b[8*t:])
		b0 := uint64(bt[0]) | uint64(bt[1])<<32
		b1 := uint64(bt[2]) | uint64(bt[3])<<32
		b2 := uint64(bt[4]) | uint64(bt[5])<<32
		b3 := uint64(bt[6]) | uint64(bt[7])<<32
		var d0, d1, d2, d3, d4, d5, d6, d7 uint64
		if x[0] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[0], b0, b1, b2, b3)
			d0, d1, d2, d3, d4 = addWords(d0, d1, d2, d3, d4, p0, p1, p2, p3, p4)
			ripples += nonzero32(d4)
		}
		if x[1] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[1], b0, b1, b2, b3)
			d0, d1, d2, d3, d4 = addWords(d0, d1, d2, d3, d4, p0, p1, p2, p3, p4)
			ripples += nonzero32(d4 >> 32)
		}
		if x[2] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[2], b0, b1, b2, b3)
			d1, d2, d3, d4, d5 = addWords(d1, d2, d3, d4, d5, p0, p1, p2, p3, p4)
			ripples += nonzero32(d5)
		}
		if x[3] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[3], b0, b1, b2, b3)
			d1, d2, d3, d4, d5 = addWords(d1, d2, d3, d4, d5, p0, p1, p2, p3, p4)
			ripples += nonzero32(d5 >> 32)
		}
		if x[4] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[4], b0, b1, b2, b3)
			d2, d3, d4, d5, d6 = addWords(d2, d3, d4, d5, d6, p0, p1, p2, p3, p4)
			ripples += nonzero32(d6)
		}
		if x[5] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[5], b0, b1, b2, b3)
			d2, d3, d4, d5, d6 = addWords(d2, d3, d4, d5, d6, p0, p1, p2, p3, p4)
			ripples += nonzero32(d6 >> 32)
		}
		if x[6] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[6], b0, b1, b2, b3)
			d3, d4, d5, d6, d7 = addWords(d3, d4, d5, d6, d7, p0, p1, p2, p3, p4)
			ripples += nonzero32(d7)
		}
		if x[7] != 0 {
			p0, p1, p2, p3, p4 := mulWords(x[7], b0, b1, b2, b3)
			d3, d4, d5, d6, d7 = addWords(d3, d4, d5, d6, d7, p0, p1, p2, p3, p4)
			ripples += nonzero32(d7 >> 32)
		}
		c17 := (*[17]uint32)(acc[17*t:])
		c := addPair(c17[0:2], d0, 0)
		c = addPair(c17[2:4], d1, c)
		c = addPair(c17[4:6], d2, c)
		c = addPair(c17[6:8], d3, c)
		c = addPair(c17[8:10], d4, c)
		c = addPair(c17[10:12], d5, c)
		c = addPair(c17[12:14], d6, c)
		c = addPair(c17[14:16], d7, c)
		c17[16] += uint32(c)
	}
	c := len(b) / 8
	skipped := 8 - rows
	steps := 8 * rows
	m.Tick(limb32.OpLoad, c*(skipped+3*steps+16)+ripples)
	m.Tick(limb32.OpMul32, c*steps)
	m.Tick(limb32.OpAdd, c*steps)
	m.Tick(limb32.OpAddC, c*(2*steps+17)+ripples)
	m.Tick(limb32.OpStore, c*(steps+16)+ripples)
	m.Tick(limb32.OpLoop, c*(skipped+steps+rows+16))
}

// mulWords returns the five-word product x·(b3:b2:b1:b0).
func mulWords(x, b0, b1, b2, b3 uint64) (p0, p1, p2, p3, p4 uint64) {
	h0, p0 := bits.Mul64(x, b0)
	h1, l1 := bits.Mul64(x, b1)
	h2, l2 := bits.Mul64(x, b2)
	h3, l3 := bits.Mul64(x, b3)
	var c uint64
	p1, c = bits.Add64(l1, h0, 0)
	p2, c = bits.Add64(l2, h1, c)
	p3, c = bits.Add64(l3, h2, c)
	return p0, p1, p2, p3, h3 + c
}

// addWords returns d + p over five words; the caller guarantees the sum
// fits.
func addWords(d0, d1, d2, d3, d4, p0, p1, p2, p3, p4 uint64) (uint64, uint64, uint64, uint64, uint64) {
	var c uint64
	d0, c = bits.Add64(d0, p0, 0)
	d1, c = bits.Add64(d1, p1, c)
	d2, c = bits.Add64(d2, p2, c)
	d3, c = bits.Add64(d3, p3, c)
	return d0, d1, d2, d3, d4 + p4 + c
}

// nonzero32 is 1 if v, which must be below 2³², is nonzero and 0
// otherwise: adding 2³²−1 reaches bit 32 exactly when v ≠ 0.
func nonzero32(v uint64) int { return int((v + 0xffffffff) >> 32) }

// addPair adds v and the carry c into the two-limb word p and returns
// the carry out.
func addPair(p []uint32, v, c uint64) uint64 {
	s, c := bits.Add64(uint64(p[0])|uint64(p[1])<<32, v, c)
	p[0], p[1] = uint32(s), uint32(s>>32)
	return c
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
