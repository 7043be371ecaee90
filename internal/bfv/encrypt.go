package bfv

import (
	"errors"
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/dcrt"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params *Parameters
	pk     *PublicKey
	src    *sampling.Source
}

// NewEncryptor returns an Encryptor.
func NewEncryptor(params *Parameters, pk *PublicKey, src *sampling.Source) *Encryptor {
	return &Encryptor{params: params, pk: pk, src: src}
}

// DeltaEncode returns Δ·m in R_q for a plaintext m — the ring element a
// plaintext contributes to a ciphertext, exported for accelerator
// backends implementing AddPlain.
func DeltaEncode(params *Parameters, pt *Plaintext) *poly.Poly {
	return deltaPoly(params, pt, nil)
}

// deltaPoly returns Δ·m + e in R_q for a plaintext m and small signed
// errors e (nil for none).
func deltaPoly(par *Parameters, pt *Plaintext, e []int8) *poly.Poly {
	return scaledPoly(par, pt, par.delta0, par.delta1, e)
}

// scaledPoly returns d·m + e in R_q for a plaintext m, a scale d = d0 +
// 2⁶⁴·d1 that is 1 or Δ, and small signed errors e (nil for none), in
// word arithmetic. d·m needs no reduction: m < t, and Δ = ⌊q/t⌋ gives
// Δ·m ≤ Δ·(t−1) ≤ q − Δ < q, so it is the two-word product of d and the
// one-word m (bits.Mul64, for any t below 2⁶⁴). Adding e's residue
// (signedWords) leaves a sum below 2q, reduced by one masked subtraction.
func scaledPoly(par *Parameters, pt *Plaintext, d0, d1 uint64, e []int8) *poly.Poly {
	p := poly.NewPoly(par.N, par.Q.W)
	q0, q1 := par.Q.Words()
	for i, m := range pt.Coeffs[:par.N] {
		if m >= par.T {
			m %= par.T
		}
		hi, lo := bits.Mul64(d0, m)
		hi += d1 * m
		if e != nil {
			e0, e1 := signedWords(e[i], q0, q1)
			var c uint64
			lo, c = bits.Add64(lo, e0, 0)
			hi, _ = bits.Add64(hi, e1, c)
			t0, b := bits.Sub64(lo, q0, 0)
			t1, b := bits.Sub64(hi, q1, b)
			keep := -b // all ones when the sum is below q
			lo, hi = lo&keep|t0&^keep, hi&keep|t1&^keep
		}
		p.SetWords(i, lo, hi)
	}
	return p
}

// Encrypt produces a fresh degree-1 encryption of pt:
//
//	c0 = p0·u + (e1 + Δ·m),   c1 = p1·u + e2
//
// u, e1 and e2 are drawn in that order, the order seeded keys and
// ciphertexts are pinned to. No term is built through math/big: u enters
// double-CRT form straight from its samples, e1 + Δ·m and e2 enter R_q in
// word arithmetic (scaledPoly, signedPoly).
func (e *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	par := e.params
	n := par.N
	if len(pt.Coeffs) != n {
		return nil, errors.New("bfv: plaintext length mismatch")
	}
	smp := make([]int8, 3*n)
	u, e1, e2 := smp[:n], smp[n:2*n], smp[2*n:]
	e.src.Ternary(u)
	e.src.Gaussian(e1)
	e.src.Gaussian(e2)

	// Both masking products p0·u and p1·u run on the double-CRT backend:
	// the public key's NTT forms are cached across encryptions and the
	// ephemeral u pays one forward transform set for both products. u
	// enters as its signed samples, not their mod-q lifts; FromRNS
	// reduces the products mod q, so the bits are those of the lifts'.
	ctx := par.dcrtCtx
	p0R, p1R := e.pk.forms.get(ctx, []*poly.Poly{e.pk.P0}, []*poly.Poly{e.pk.P1})
	uR, prod := ctx.GetScratch(), ctx.GetScratch()
	defer ctx.PutScratch(uR)
	defer ctx.PutScratch(prod)
	ctx.SmallToRNS(uR, u)

	ctx.MulNTT(prod, p0R[0], uR)
	c0 := ctx.FromRNS(prod)
	poly.Add(c0, c0, deltaPoly(par, pt, e1), par.Q)

	ctx.MulNTT(prod, p1R[0], uR)
	c1 := ctx.FromRNS(prod)
	poly.Add(c1, c1, signedPoly(e2, par.Q), par.Q)

	return &Ciphertext{Polys: []*poly.Poly{c0, c1}}, nil
}

// EncryptValue encrypts a single unsigned value into the constant
// coefficient — the encoding the paper's statistical workloads use (one
// datum per ciphertext).
func (e *Encryptor) EncryptValue(v uint64) (*Ciphertext, error) {
	pt := NewPlaintext(e.params)
	pt.Coeffs[0] = v % e.params.T
	return e.Encrypt(pt)
}

// Decryptor decrypts ciphertexts with the secret key. Decrypt runs
// entirely in word arithmetic: the phase c0 + c1·s (+ c2·s²) accumulates
// on the cached double-CRT NTT forms and the exact t/q rounding folds
// straight to mod t per limb (dcrt.ScaleRounder.RoundModT) — no big.Int.
// The big.Int path remains as the oracle and the fallback for degrees or
// magnitudes outside the word-sized window.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey

	sOnce  sync.Once
	sForm  *dcrt.Poly // centered double-CRT form of s
	s2Form *dcrt.Poly // NTT-domain s·s (the integer convolution s⊛s)
}

// NewDecryptor returns a Decryptor.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// secretForms builds (once) the secret key's double-CRT forms. s enters
// centered (ternary ±1); s² is the pointwise square — the integer
// convolution s⊛s, congruent to s² mod q, with coefficients ≤ n, so the
// phase accumulator stays exactly representable.
func (d *Decryptor) secretForms(ctx *dcrt.Context) (s, s2 *dcrt.Poly) {
	d.sOnce.Do(func() {
		d.sForm = ctx.ToRNSCentered(d.sk.S)
		d.s2Form = ctx.NewPoly()
		ctx.MulNTT(d.s2Form, d.sForm, d.sForm)
	})
	return d.sForm, d.s2Form
}

// phase computes c0 + c1·s + c2·s² + … in R_q (the "phase" of the
// ciphertext, Δ·m + noise).
func (d *Decryptor) phase(ct *Ciphertext) *poly.Poly {
	par := d.params
	acc := ct.Polys[0].Clone()
	sPow := d.sk.S.Clone()
	for i := 1; i < len(ct.Polys); i++ {
		tmp := mulRq(par, ct.Polys[i], sPow)
		poly.Add(acc, acc, tmp, par.Q)
		if i+1 < len(ct.Polys) {
			sPow = mulRq(par, sPow, d.sk.S)
		}
	}
	return acc
}

// Decrypt recovers the plaintext: m = ⌊t·phase/q⌉ mod t, coefficient-wise
// on centered representatives. Degree-1 and degree-2 ciphertexts decrypt
// without big.Int (see decryptRNS); other shapes fall back to the big.Int
// path, bit-identically.
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	if pt, ok := d.decryptRNS(ct); ok {
		return pt
	}
	return d.decryptBig(ct)
}

// decryptRNS is the RNS-native Decrypt: the phase accumulates as an
// exact integer on the ciphertext's centered NTT forms, read through
// rnsNTTRead (|phase| ≤ q·n^deg, far inside the basis bound), and
// RoundModT folds ⌊t·phase/q⌉ mod t per coefficient in word
// arithmetic. The phase integer differs from the big.Int path's mod-q
// representative by a multiple of q, which shifts the rounded quotient
// by a multiple of t — invisible mod t, so the result is bit-identical
// to the oracle. Returns ok=false when the ciphertext degree or phase
// magnitude is outside the word-sized window.
func (d *Decryptor) decryptRNS(ct *Ciphertext) (*Plaintext, bool) {
	par := d.params
	deg := ct.Degree()
	if deg < 1 || deg > 2 {
		return nil, false
	}
	ctx := par.dcrtCtx
	sr := ctx.ScaleRounder(par.T)
	magBits := par.Q.Bits() + deg*bits.Len(uint(par.N)) + 1
	if !sr.CanRoundModT(magBits) {
		return nil, false
	}
	s, s2 := d.secretForms(ctx)
	acc := ctx.GetScratch()
	defer ctx.PutScratch(acc)
	acc.Zero()
	for i, key := range []*dcrt.Poly{nil, s, s2}[:deg+1] {
		c, scratch := ct.rnsNTTRead(ctx, i)
		if key == nil {
			ctx.AddNTT(acc, acc, c)
		} else {
			ctx.MulAddNTT(acc, c, key)
		}
		if scratch {
			ctx.PutScratch(c)
		}
	}
	pt := NewPlaintext(par)
	sr.RoundModT(acc, pt.Coeffs)
	return pt, true
}

// decryptBig is the big.Int Decrypt — the rounding oracle decryptRNS is
// differentially pinned to, and the fallback outside its window.
func (d *Decryptor) decryptBig(ct *Ciphertext) *Plaintext {
	par := d.params
	v := d.phase(ct)
	pt := NewPlaintext(par)
	tBig := new(big.Int).SetUint64(par.T)
	for i, c := range v.ToCenteredCoeffs(par.Q) {
		num := new(big.Int).Mul(c, tBig)
		m := divRound(num, par.Q.QBig)
		m.Mod(m, tBig)
		pt.Coeffs[i] = m.Uint64()
	}
	return pt
}

// NoiseBudget returns the remaining noise budget of ct in bits:
// log2(q / (2·|v − Δ·m|_∞)) with m the decrypted plaintext. A negative or
// zero budget means decryption is no longer guaranteed.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) int {
	par := d.params
	v := d.phase(ct)
	pt := d.Decrypt(ct)
	// noise = v - Δ·m over centered representatives.
	dm := deltaPoly(par, pt, nil)
	diff := poly.NewPoly(par.N, par.Q.W)
	poly.Sub(diff, v, dm, par.Q)
	norm := diff.InfNormCentered(par.Q)
	if norm.Sign() == 0 {
		return par.Q.Bits() - 1
	}
	budget := par.Q.Bits() - 1 - norm.BitLen()
	return budget
}

// divRound returns round(num/den) for den > 0, rounding half away from
// zero, using floor division on the shifted numerator.
func divRound(num, den *big.Int) *big.Int {
	n := new(big.Int)
	divRoundInto(n, num, new(big.Int).Rsh(den, 1), den)
	return n
}

// divRoundInto is divRound for hot loops: it writes round(num/den) into
// dst (which must not alias num) given half = ⌊den/2⌋. This is the one
// place the scheme's rounding convention lives — the RNS-native
// ScaleRounder is differentially pinned to it.
func divRoundInto(dst, num, half, den *big.Int) {
	if num.Sign() >= 0 {
		dst.Add(num, half)
	} else {
		dst.Sub(num, half)
	}
	dst.Quo(dst, den)
}
