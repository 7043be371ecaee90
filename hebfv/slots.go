package hebfv

import (
	"math/bits"

	"repro/internal/bfv"
)

// Slot-level rotations. Under CRT batching the N plaintext slots form a
// 2 × (N/2) matrix, and the ring's Galois automorphisms act on it as
// slot permutations: τ_{3^k} rotates each row left by k, τ_{2N−1} swaps
// the rows. The slot → Galois-element mapping is computed here, inside
// the facade, so callers speak in rotation steps and never see
// exponents; the mapping itself is backend-independent (it depends only
// on the ring degree), so rotations are bit-identical across backends.
//
// Mechanics: the NTT slot at index j holds the evaluation of the
// plaintext polynomial at ψ^(2·bitrev(j)+1) (the transform's
// Longa–Naehrig layout). The odd exponents mod 2N factor as ±3^c —
// ⟨−1⟩ × ⟨3⟩ generates the whole group — so logical slot (row r,
// column c) is assigned the evaluation at (−1)^r·3^c. Applying τ_g
// (g = 3^k) to the ciphertext moves the evaluation at ±3^c to
// ±3^(c−k): each row rotates left by k, rows never mix. g = 2N−1
// negates every exponent: the rows swap column-wise.

// slotPerm maps logical slot index (row-major in the 2 × N/2 matrix) to
// the NTT slot holding its evaluation point.
func slotPerm(n int) []int {
	logN := bits.TrailingZeros(uint(n))
	twoN := uint64(2 * n)
	perm := make([]int, n)
	row := n / 2
	e := uint64(1) // 3^c mod 2N
	for c := 0; c < row; c++ {
		perm[c] = nttSlot(e, logN)          // row 0: evaluation at ψ^(3^c)
		perm[row+c] = nttSlot(twoN-e, logN) // row 1: evaluation at ψ^(−3^c)
		e = e * 3 % twoN
	}
	return perm
}

// nttSlot returns the NTT slot index whose evaluation exponent is the
// odd e: j with 2·bitrev(j)+1 = e.
func nttSlot(e uint64, logN int) int {
	return int(bits.Reverse64((e-1)/2) >> (64 - logN))
}

// rowStepElement returns the Galois element realizing a row rotation by
// k steps (left for positive k, right for negative), i.e. 3^(k mod N/2)
// mod 2N.
func (c *Context) rowStepElement(k int) uint64 {
	row := c.params.N / 2
	k = ((k % row) + row) % row
	twoN := uint64(2 * c.params.N)
	g := uint64(1)
	for i := 0; i < k; i++ {
		g = g * 3 % twoN
	}
	return g
}

// columnElement returns the Galois element realizing the column-wise
// row swap: 2N − 1 (negation of every evaluation exponent).
func (c *Context) columnElement() uint64 {
	return uint64(2*c.params.N) - 1
}

// RotateRows rotates each slot row left by k steps (right for negative
// k): output slot (r, c) receives input slot (r, (c+k) mod RowSlots).
// The Galois key for the step is derived and cached on first use.
func (c *Context) RotateRows(ct *Ciphertext, k int) (_ *Ciphertext, err error) {
	defer guard(&err)
	out, err := c.rotate([]*Ciphertext{ct}, []uint64{c.rowStepElement(k)})
	if err != nil {
		return nil, err
	}
	return out[0][0], nil
}

// RotateColumns swaps the two slot rows column-wise: output slot (r, c)
// receives input slot (1−r, c).
func (c *Context) RotateColumns(ct *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	out, err := c.rotate([]*Ciphertext{ct}, []uint64{c.columnElement()})
	if err != nil {
		return nil, err
	}
	return out[0][0], nil
}

// rotate returns out[i][j] = τ_{els[j]}(cts[i]) through one engine
// dispatch. The identity element (a row rotation by a multiple of the
// row length) is never key-switched and needs no key: its outputs are
// fresh handles over copies of the inputs, like every other result.
func (c *Context) rotate(cts []*Ciphertext, els []uint64) ([][]*Ciphertext, error) {
	if _, err := c.requireBatching(); err != nil {
		return nil, err
	}
	vs, err := c.operands(cts)
	if err != nil {
		return nil, err
	}
	defer unpinAll(cts)
	var gs []uint64
	for _, g := range els {
		if g != 1 {
			gs = append(gs, g)
		}
	}
	gks, err := c.galoisKeys(gs)
	if err != nil {
		return nil, err
	}
	var rows [][]bfv.Value
	if len(gks) > 0 {
		if rows, err = c.eng.Rotate(vs, gks); err != nil {
			return nil, err
		}
	}
	out := make([][]*Ciphertext, len(cts))
	for i := range cts {
		out[i] = make([]*Ciphertext, len(els))
		next := 0
		for j, g := range els {
			if g == 1 {
				out[i][j] = c.wrap(vs[i].Materialize().Clone())
			} else {
				out[i][j] = c.wrap(rows[i][next])
				next++
			}
		}
	}
	return out, nil
}

// InnerSum returns a ciphertext whose every slot holds the sum of all
// input slots, via the log-depth rotate-and-add ladder (log2(RowSlots)
// row rotations plus one column swap). The ladder's Galois keys derive
// lazily; pregenerate them with WithRotations(1, 2, 4, …) and
// WithColumnRotation on contexts that must stay evaluation-only.
func (c *Context) InnerSum(ct *Ciphertext) (_ *Ciphertext, err error) {
	defer guard(&err)
	if _, err := c.requireBatching(); err != nil {
		return nil, err
	}
	// rung folds one rotation of acc into it. The rotation and the
	// partial sum it replaces are intermediates, released at once.
	acc := ct
	rung := func(rot *Ciphertext, err error) error {
		if err != nil {
			return err
		}
		defer rot.Release()
		next, err := c.Add(acc, rot)
		if err != nil {
			return err
		}
		if acc != ct {
			acc.Release()
		}
		acc = next
		return nil
	}
	for sh := 1; sh < c.RowSlots() && err == nil; sh <<= 1 {
		err = rung(c.RotateRows(acc, sh))
	}
	if err == nil {
		err = rung(c.RotateColumns(acc))
	}
	if err != nil {
		if acc != ct {
			acc.Release()
		}
		return nil, err
	}
	return acc, nil
}

// RotateRowsMany returns the row rotations of ct by every step in ks,
// hoisting the key-switching digit decomposition: one decomposition
// serves all steps. On backends with NTT-resident rotation outputs the
// results stay in cached NTT form — their base conversions deferred —
// until a consumer forces coefficients (see Ciphertext). Each output is
// bit-identical to RotateRows(ct, ks[i]).
func (c *Context) RotateRowsMany(ct *Ciphertext, ks []int) (_ []*Ciphertext, err error) {
	defer guard(&err)
	out, err := c.rotate([]*Ciphertext{ct}, c.rowStepElements(ks))
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RotateRowsAndSum returns, for each input ciphertext, ct + Σ_k
// RotateRows(ct, k) over the steps ks — the batched rotate-and-sum
// aggregation, with the key-switching reductions of all steps fused on
// backends that support it. Bit-identical to folding RotateRows outputs
// with Add in step order.
func (c *Context) RotateRowsAndSum(cts []*Ciphertext, ks []int) (_ []*Ciphertext, err error) {
	defer guard(&err)
	if _, err := c.requireBatching(); err != nil {
		return nil, err
	}
	vs, err := c.operands(cts)
	if err != nil {
		return nil, err
	}
	defer unpinAll(cts)
	// Identity steps contribute the un-keyswitched input itself, like
	// RotateRows; modular addition commutes bit-exactly, so folding them
	// after the engine's reduction matches the documented step order.
	var gs []uint64
	identity := 0
	for _, g := range c.rowStepElements(ks) {
		if g == 1 {
			identity++
		} else {
			gs = append(gs, g)
		}
	}
	gks, err := c.galoisKeys(gs)
	if err != nil {
		return nil, err
	}
	var out []bfv.Value
	switch {
	case len(gks) > 0:
		if out, err = c.eng.RotateAndSum(vs, gks); err != nil {
			return nil, err
		}
	case identity > 0:
		// All steps were identities: no hoisted decomposition to pay.
		// The identity folds below produce fresh outputs.
		out = vs
	default:
		// No steps at all: return fresh copies — facade outputs never
		// alias input backings (callers may release inputs afterwards).
		out = make([]bfv.Value, len(vs))
		for i, v := range vs {
			out[i] = v.Materialize().Clone()
		}
	}
	// Each fold's input is an intermediate once it is not vs itself.
	for r := 0; r < identity; r++ {
		next, err := c.eng.Add(out, vs)
		if r > 0 || len(gks) > 0 {
			releaseValues(out)
		}
		if err != nil {
			return nil, err
		}
		out = next
	}
	return c.wrapAll(out), nil
}

// RotateRowsEach rotates every input ciphertext's rows left by the same
// k steps — the coalesced-rotation workload of the served front end,
// where concurrent tenants' same-step requests are gathered and flushed
// as one batch sharing one engine dispatch. Each output is bit-identical
// to RotateRows(cts[i], k).
func (c *Context) RotateRowsEach(cts []*Ciphertext, k int) (_ []*Ciphertext, err error) {
	defer guard(&err)
	rows, err := c.rotate(cts, []uint64{c.rowStepElement(k)})
	if err != nil {
		return nil, err
	}
	out := make([]*Ciphertext, len(rows))
	for i, row := range rows {
		out[i] = row[0]
	}
	return out, nil
}

// rowStepElements maps rotation steps to Galois elements. Steps that
// reduce to the identity element g = 1 (k ≡ 0 mod RowSlots) are handled
// by the callers as copies — never key-switched.
func (c *Context) rowStepElements(ks []int) []uint64 {
	out := make([]uint64, len(ks))
	for i, k := range ks {
		out[i] = c.rowStepElement(k)
	}
	return out
}
