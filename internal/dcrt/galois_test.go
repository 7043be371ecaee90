package dcrt

import (
	"math/big"
	"testing"

	"repro/internal/poly"
	"repro/internal/sampling"
)

// applyGaloisOracle is the coefficient-domain automorphism τ_g with the
// negacyclic sign rule (X^N ≡ −1), mirroring bfv's applyGaloisPoly.
func applyGaloisOracle(p *poly.Poly, g uint64, mod *poly.Modulus) *poly.Poly {
	n := p.N
	coeffs := p.ToBigCoeffs()
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		j := int((uint64(i) * g) % uint64(2*n))
		if j < n {
			out[j].Set(coeffs[i])
		} else {
			out[j-n].Neg(coeffs[i])
			out[j-n].Mod(out[j-n], mod.QBig)
		}
	}
	res := poly.NewPoly(n, mod.W)
	for i, c := range out {
		res.Coeff(i).SetBig(c) // in [0, q)
	}
	return res
}

// TestGaloisNTTPermutation pins the slot-permutation table to the
// coefficient-domain automorphism: permuting the centered double-CRT
// form of p must give the centered double-CRT form of τ_g(p), for every
// limb. (Centered, because the slot permutation realizes the automorphism
// over the integers — a negated coefficient becomes the integer −v, which
// is the centered lift of the canonical representative q−v.) This is the
// exactness foundation of hoisted rotations.
func TestGaloisNTTPermutation(t *testing.T) {
	src := sampling.NewSourceFromUint64(9001)
	for _, qs := range testModuli {
		q, _ := new(big.Int).SetString(qs, 10)
		mod, err := poly.NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{64, 256} {
			ctx, err := GetContext(mod, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := randPoly(src, n, mod)
			for _, g := range []uint64{1, 3, 5, uint64(2*n - 1)} {
				idx := GaloisNTTIndices(n, g)
				want := ctx.ToRNSCentered(applyGaloisOracle(p, g, mod))
				got := ctx.NewPoly()
				ctx.PermuteNTT(got, ctx.ToRNSCentered(p), idx)
				for i := range got.Coeffs {
					for j := range got.Coeffs[i] {
						if got.Coeffs[i][j] != want.Coeffs[i][j] {
							t.Fatalf("q=%s n=%d g=%d limb %d slot %d: permuted %d want %d",
								qs, n, g, i, j, got.Coeffs[i][j], want.Coeffs[i][j])
						}
					}
				}
			}
		}
	}
}

// TestMulAddGatherNTT checks the fused gather-multiply-accumulate
// (GaloisAccAllNTT with one digit) against the unfused PermuteNTT +
// MulAddNTT pair, called twice so the second pass accumulates onto a
// non-zero sum.
func TestMulAddGatherNTT(t *testing.T) {
	q, _ := new(big.Int).SetString(testModuli[1], 10)
	mod, _ := poly.NewModulus(q)
	n := 128
	ctx, err := GetContext(mod, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sampling.NewSourceFromUint64(9002)
	a := ctx.ToRNS(randPoly(src, n, mod))
	b := ctx.ToRNS(randPoly(src, n, mod))
	idx := GaloisNTTIndices(n, 7)

	want := ctx.NewPoly()
	perm := ctx.NewPoly()
	ctx.PermuteNTT(perm, b, idx)
	ctx.MulAddNTT(want, a, perm)
	ctx.MulAddNTT(want, a, perm)

	got, other := ctx.NewPoly(), ctx.NewPoly()
	for range 2 {
		ctx.GaloisAccAllNTT(got, other, []*Poly{a}, []*Poly{a}, []*Poly{b}, idx)
	}

	for i := range got.Coeffs {
		for j := range got.Coeffs[i] {
			if got.Coeffs[i][j] != want.Coeffs[i][j] || other.Coeffs[i][j] != want.Coeffs[i][j] {
				t.Fatalf("limb %d slot %d: fused %d/%d want %d", i, j,
					got.Coeffs[i][j], other.Coeffs[i][j], want.Coeffs[i][j])
			}
		}
	}
}

func TestGaloisNTTIndicesRejectsEven(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even Galois element accepted")
		}
	}()
	GaloisNTTIndices(64, 4)
}
