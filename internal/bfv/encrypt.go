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
	return deltaPoly(params, pt)
}

// deltaPoly returns Δ·m in R_q for a plaintext m.
func deltaPoly(params *Parameters, pt *Plaintext) *poly.Poly {
	coeffs := make([]*big.Int, params.N)
	for i := range coeffs {
		c := new(big.Int).SetUint64(pt.Coeffs[i] % params.T)
		coeffs[i] = c.Mul(c, params.Delta)
	}
	return poly.FromBigCoeffs(coeffs, params.Q)
}

// Encrypt produces a fresh degree-1 encryption of pt:
//
//	c0 = p0·u + e1 + Δ·m,   c1 = p1·u + e2
func (e *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	par := e.params
	if len(pt.Coeffs) != par.N {
		return nil, errors.New("bfv: plaintext length mismatch")
	}
	u := ternaryPoly(e.src, par.N, par.Q)
	e1 := gaussianPoly(e.src, par.N, par.Q)
	e2 := gaussianPoly(e.src, par.N, par.Q)

	// Both masking products p0·u and p1·u run on the double-CRT backend:
	// the public key's NTT forms are cached across encryptions and the
	// ephemeral u pays one forward transform set for both products.
	ctx := dcrtFor(par)
	p0R, p1R := e.pk.forms.get(ctx, []*poly.Poly{e.pk.P0}, []*poly.Poly{e.pk.P1})
	uR := ctx.ToRNS(u)

	prod := ctx.NewPoly()
	ctx.MulNTT(prod, p0R[0], uR)
	c0 := ctx.FromRNS(prod)
	poly.Add(c0, c0, e1, par.Q, nil)
	poly.Add(c0, c0, deltaPoly(par, pt), par.Q, nil)

	ctx.MulNTT(prod, p1R[0], uR)
	c1 := ctx.FromRNS(prod)
	poly.Add(c1, c1, e2, par.Q, nil)

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

// Decryptor decrypts ciphertexts with the secret key. On RNS-native
// parameter sets the unmetered Decrypt path runs entirely in word
// arithmetic: the phase c0 + c1·s (+ c2·s²) accumulates on the cached
// double-CRT NTT forms and the exact t/q rounding folds straight to
// mod t per limb (dcrt.ScaleRounder.RoundModT) — no big.Int. The
// big.Int path remains as the oracle and the fallback for moduli or
// degrees outside the word-sized window.
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
		poly.Add(acc, acc, tmp, par.Q, nil)
		if i+1 < len(ct.Polys) {
			sPow = mulRq(par, sPow, d.sk.S)
		}
	}
	return acc
}

// Decrypt recovers the plaintext: m = ⌊t·phase/q⌉ mod t, coefficient-wise
// on centered representatives. Degree-1 and degree-2 ciphertexts on
// RNS-native parameter sets decrypt without big.Int (see decryptRNS);
// other shapes fall back to the big.Int path, bit-identically.
func (d *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	if pt, ok := d.decryptRNS(ct); ok {
		return pt
	}
	return d.decryptBig(ct)
}

// decryptRNS is the RNS-native Decrypt: the phase accumulates as an
// exact integer on the cached centered NTT forms (|phase| ≤ q·n^deg, far
// inside the basis bound), and RoundModT folds ⌊t·phase/q⌉ mod t per
// coefficient in word arithmetic. The phase integer differs from the
// big.Int path's mod-q representative by a multiple of q, which shifts
// the rounded quotient by a multiple of t — invisible mod t, so the
// result is bit-identical to the oracle. Returns ok=false when the
// modulus shape or ciphertext degree is outside the word-sized window.
func (d *Decryptor) decryptRNS(ct *Ciphertext) (*Plaintext, bool) {
	par := d.params
	deg := ct.Degree()
	if deg < 1 || deg > 2 {
		return nil, false
	}
	ctx := dcrtFor(par)
	if !ctx.RNSNative() {
		return nil, false
	}
	sr := ctx.ScaleRounder(par.T)
	magBits := par.Q.Bits() + deg*bits.Len(uint(par.N)) + 1
	if !sr.CanRoundModT(magBits) {
		return nil, false
	}
	s, s2 := d.secretForms(ctx)
	acc := ctx.GetScratch()
	defer ctx.PutScratch(acc)
	acc.Zero()
	ctx.AddNTT(acc, acc, ct.rnsNTT(ctx, 0))
	ctx.MulAddNTT(acc, ct.rnsNTT(ctx, 1), s)
	if deg == 2 {
		ctx.MulAddNTT(acc, ct.rnsNTT(ctx, 2), s2)
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

// DecryptValue decrypts the constant coefficient (EncryptValue's inverse).
func (d *Decryptor) DecryptValue(ct *Ciphertext) uint64 {
	return d.Decrypt(ct).Coeffs[0]
}

// NoiseBudget returns the remaining noise budget of ct in bits:
// log2(q / (2·|v − Δ·m|_∞)) with m the decrypted plaintext. A negative or
// zero budget means decryption is no longer guaranteed.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) int {
	par := d.params
	v := d.phase(ct)
	pt := d.Decrypt(ct)
	// noise = v - Δ·m over centered representatives.
	dm := deltaPoly(par, pt)
	diff := poly.NewPoly(par.N, par.Q.W)
	poly.Sub(diff, v, dm, par.Q, nil)
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
