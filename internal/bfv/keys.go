package bfv

import (
	"math/bits"

	"repro/internal/dcrt"
	"repro/internal/limb32"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// SecretKey is a ternary polynomial s ∈ R_q.
type SecretKey struct {
	S *poly.Poly
}

// PublicKey is the RLWE pair (p0, p1) = (-(a·s + e), a).
type PublicKey struct {
	P0, P1 *poly.Poly

	forms keyForms // lazily-built double-CRT forms (see dcrt.go)
}

// switchKey is a key switch from s' to s: for each of the RelinDigits
// base-2^BaseBits digits, (k0_i, k1_i) = (-(a_i·s + e_i) + wⁱ·s', a_i).
// Relinearization switches from s' = s², a rotation from s' = τ_g(s)
// (Fan–Vercauteren, eprint 2012/144), so RelinKey and GaloisKey embed
// this one type: one generator, one wire codec, one NTT-form cache.
type switchKey struct {
	BaseBits uint
	K0, K1   []*poly.Poly

	forms keyForms // lazily-built double-CRT forms (see dcrt.go)
}

// nttForms returns the key's double-CRT NTT forms, built on first use.
func (k *switchKey) nttForms(ctx *dcrt.Context) (k0, k1 []*dcrt.Poly) {
	return k.forms.get(ctx, k.K0, k.K1)
}

// RelinKey holds the evaluation keys for relinearization: the key switch
// from s² to s.
type RelinKey struct {
	switchKey
}

// KeyGenerator derives keys from a parameter set and randomness source.
type KeyGenerator struct {
	params *Parameters
	src    *sampling.Source
}

// NewKeyGenerator returns a key generator. Pass a deterministic source for
// reproducible tests or one from sampling.NewSystemSource for real use.
func NewKeyGenerator(params *Parameters, src *sampling.Source) *KeyGenerator {
	return &KeyGenerator{params: params, src: src}
}

// signedPoly maps small signed samples (|v| < q) into R_q in word
// arithmetic: see signedWords.
func signedPoly(vals []int8, mod *poly.Modulus) *poly.Poly {
	p := poly.NewPoly(len(vals), mod.W)
	q0, q1 := mod.Words()
	for i, v := range vals {
		lo, hi := signedWords(v, q0, q1)
		p.SetWords(i, lo, hi)
	}
	return p
}

// signedWords returns v mod q as two 64-bit words, low first, for |v| < q
// = q0 + 2⁶⁴·q1: v itself when v ≥ 0, else q − |v| by one borrow chain.
// A mask selects between the two rather than a branch, since the sign of
// a sample is random.
func signedWords(v int8, q0, q1 uint64) (lo, hi uint64) {
	neg := uint64(v >> 7)        // all ones when v < 0
	a := (uint64(v) ^ neg) - neg // |v|
	d0, b := bits.Sub64(q0, a, 0)
	d1, _ := bits.Sub64(q1, 0, b)
	return d0&neg | a&^neg, d1 & neg
}

// uniformPoly samples a uniform element of R_q.
func uniformPoly(src *sampling.Source, n int, mod *poly.Modulus) *poly.Poly {
	p := poly.NewPoly(n, mod.W)
	src.UniformCoeffs(p.C, mod.Q)
	return p
}

// gaussianPoly samples a discrete-Gaussian error polynomial.
func gaussianPoly(src *sampling.Source, n int, mod *poly.Modulus) *poly.Poly {
	e := make([]int8, n)
	src.Gaussian(e)
	return signedPoly(e, mod)
}

// ternaryPoly samples a uniform ternary polynomial.
func ternaryPoly(src *sampling.Source, n int, mod *poly.Modulus) *poly.Poly {
	v := make([]int8, n)
	src.Ternary(v)
	return signedPoly(v, mod)
}

// GenSecretKey samples a fresh ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	return &SecretKey{S: ternaryPoly(kg.src, kg.params.N, kg.params.Q)}
}

// GenPublicKey derives a public key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	par := kg.params
	a := uniformPoly(kg.src, par.N, par.Q)
	e := gaussianPoly(kg.src, par.N, par.Q)

	// p0 = -(a·s + e)
	as := mulRq(par, a, sk.S)
	poly.Add(as, as, e, par.Q)
	poly.Neg(as, as, par.Q)
	return &PublicKey{P0: as, P1: a}
}

// GenRelinKey derives the relinearization (evaluation) key for sk.
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	rk := &RelinKey{}
	kg.genSwitchKey(&rk.switchKey, sk, mulRq(kg.params, sk.S, sk.S))
	return rk
}

// genSwitchKey fills k with the key switching from target to sk.S,
// drawing a_i then e_i for each digit in turn.
func (kg *KeyGenerator) genSwitchKey(k *switchKey, sk *SecretKey, target *poly.Poly) {
	par := kg.params
	digits := par.RelinDigits()
	k.BaseBits = par.RelinBaseBits
	k.K0 = make([]*poly.Poly, digits)
	k.K1 = make([]*poly.Poly, digits)
	w := limb32.NewNat(par.Q.W)
	for i := 0; i < digits; i++ {
		a := uniformPoly(kg.src, par.N, par.Q)
		e := gaussianPoly(kg.src, par.N, par.Q)

		// k0 = -(a·s + e) + wⁱ·target
		k0 := mulRq(par, a, sk.S)
		poly.Add(k0, k0, e, par.Q)
		poly.Neg(k0, k0, par.Q)

		// wⁱ = 2^(i·BaseBits) is its own residue, one set bit: RelinDigits
		// = ⌈bits(q)/BaseBits⌉ puts i·BaseBits below bits(q), and q is odd,
		// so wⁱ < q.
		sh := uint(i) * par.RelinBaseBits
		clear(w)
		w[sh/32] = 1 << (sh % 32)
		scaled := poly.NewPoly(par.N, par.Q.W)
		poly.MulScalar(scaled, target, w, par.Q)
		poly.Add(k0, k0, scaled, par.Q)

		k.K0[i] = k0
		k.K1[i] = a
	}
}

// GenKeyPair is a convenience bundling secret and public key generation.
func (kg *KeyGenerator) GenKeyPair() (*SecretKey, *PublicKey) {
	sk := kg.GenSecretKey()
	return sk, kg.GenPublicKey(sk)
}
