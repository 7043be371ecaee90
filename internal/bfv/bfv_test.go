package bfv

import (
	"math/big"
	"testing"

	"repro/internal/sampling"
)

// ctx bundles everything a functional test needs.
type ctx struct {
	params *Parameters
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinKey
	enc    *Encryptor
	dec    *Decryptor
	eval   *Evaluator
}

func newCtx(t *testing.T, params *Parameters, seed uint64, relin bool) *ctx {
	t.Helper()
	src := sampling.NewSourceFromUint64(seed)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	var rlk *RelinKey
	if relin {
		rlk = kg.GenRelinKey(sk)
	}
	return &ctx{
		params: params,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		enc:    NewEncryptor(params, pk, src),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params, rlk),
	}
}

func TestParamsValidation(t *testing.T) {
	q := ParamsToy().Q.QBig
	if _, err := NewParameters(100, q, 16, 20); err == nil {
		t.Error("non-power-of-two N accepted")
	}
	if _, err := NewParameters(64, q, 1, 20); err == nil {
		t.Error("t=1 accepted")
	}
	if _, err := NewParameters(64, q, 16, 0); err == nil {
		t.Error("relin base 0 accepted")
	}
	if _, err := NewParameters(64, q, 16, 40); err == nil {
		t.Error("relin base 40 accepted")
	}
	// A q at or below the error bound could not hold q − |e| for every
	// Gaussian sample e.
	if _, err := NewParameters(64, big.NewInt(19), 2, 20); err == nil {
		t.Error("q = 19, below the Gaussian bound, accepted")
	}
	// Moduli the double-CRT backend cannot serve are refused up front
	// rather than given a slower evaluator.
	one := big.NewInt(1)
	for name, bad := range map[string]*big.Int{
		"even q":        new(big.Int).Lsh(one, 40),
		"63-bit odd q":  new(big.Int).Sub(new(big.Int).Lsh(one, 63), one),
		"125-bit odd q": new(big.Int).Add(new(big.Int).Lsh(one, 124), one),
	} {
		if _, err := NewParameters(64, bad, 16, 20); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		p        *Parameters
		n, w, qb int
	}{
		{ParamsSec27(), 1024, 1, 27},
		{ParamsSec54(), 2048, 2, 54},
		{ParamsSec109(), 4096, 4, 109},
	}
	for _, c := range cases {
		if c.p.N != c.n || c.p.Q.W != c.w || c.p.Q.Bits() != c.qb {
			t.Errorf("%v: want N=%d W=%d bits=%d", c.p, c.n, c.w, c.qb)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 1, false)
	for _, v := range []uint64{0, 1, 7, 15} {
		ct, err := c.enc.EncryptValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.dec.Decrypt(ct).Coeffs[0]; got != v {
			t.Errorf("decrypt(encrypt(%d)) = %d", v, got)
		}
	}
}

func TestEncryptDecryptFullPlaintext(t *testing.T) {
	c := newCtx(t, ParamsToy(), 2, false)
	pt := NewPlaintext(c.params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i) % c.params.T
	}
	ct, err := c.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	got := c.dec.Decrypt(ct)
	for i := range pt.Coeffs {
		if got.Coeffs[i] != pt.Coeffs[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got.Coeffs[i], pt.Coeffs[i])
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	c := newCtx(t, ParamsToy(), 3, false)
	ct1, _ := c.enc.EncryptValue(5)
	ct2, _ := c.enc.EncryptValue(5)
	if ct1.Equal(ct2) {
		t.Error("two encryptions of the same value must differ")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	c := newCtx(t, ParamsToy(), 4, false)
	ct1, _ := c.enc.EncryptValue(3)
	ct2, _ := c.enc.EncryptValue(9)
	sum := c.eval.Add(ct1, ct2)
	if got := c.dec.Decrypt(sum).Coeffs[0]; got != 12 {
		t.Errorf("3 + 9 = %d", got)
	}
	// Chained additions mod t.
	acc := sum
	for i := 0; i < 10; i++ {
		acc = c.eval.Add(acc, ct1)
	}
	want := uint64((12 + 10*3) % 16)
	if got := c.dec.Decrypt(acc).Coeffs[0]; got != want {
		t.Errorf("chained adds = %d, want %d", got, want)
	}
}

func TestHomomorphicSubNeg(t *testing.T) {
	c := newCtx(t, ParamsToy(), 5, false)
	ct1, _ := c.enc.EncryptValue(9)
	ct2, _ := c.enc.EncryptValue(3)
	if got := c.dec.Decrypt(c.eval.Add(ct1, c.eval.Neg(ct2))).Coeffs[0]; got != 6 {
		t.Errorf("9 - 3 = %d", got)
	}
	neg := c.eval.Neg(ct2)
	if got := c.dec.Decrypt(neg).Coeffs[0]; got != c.params.T-3 {
		t.Errorf("-3 mod t = %d, want %d", got, c.params.T-3)
	}
}

func TestAddPlainMulPlain(t *testing.T) {
	c := newCtx(t, ParamsToy(), 6, false)
	constant := func(v uint64) *Plaintext {
		pt := NewPlaintext(c.params)
		pt.Coeffs[0] = v
		return pt
	}
	ct, _ := c.enc.EncryptValue(5)
	ct2 := c.eval.AddPlain(ct, constant(4))
	if got := c.dec.Decrypt(ct2).Coeffs[0]; got != 9 {
		t.Errorf("5 + plain 4 = %d", got)
	}
	ct3 := c.eval.MulPlain(ct, constant(3))
	if got := c.dec.Decrypt(ct3).Coeffs[0]; got != 15 {
		t.Errorf("5 * plain 3 = %d", got)
	}
}

func TestHomomorphicMul(t *testing.T) {
	c := newCtx(t, ParamsToy(), 7, true)
	ct1, _ := c.enc.EncryptValue(3)
	ct2, _ := c.enc.EncryptValue(5)
	prod, err := c.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 1 {
		t.Errorf("relinearized product has degree %d", prod.Degree())
	}
	if got := c.dec.Decrypt(prod).Coeffs[0]; got != 15 {
		t.Errorf("3 * 5 = %d", got)
	}
}

func TestMulNoRelinDecrypts(t *testing.T) {
	c := newCtx(t, ParamsToy(), 8, false)
	ct1, _ := c.enc.EncryptValue(7)
	ct2, _ := c.enc.EncryptValue(2)
	prod, err := c.eval.MulNoRelin(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("tensor product degree = %d, want 2", prod.Degree())
	}
	if got := c.dec.Decrypt(prod).Coeffs[0]; got != 14 {
		t.Errorf("7 * 2 (degree-2) = %d", got)
	}
}

func TestSquareForVariance(t *testing.T) {
	c := newCtx(t, ParamsToy(), 9, true)
	ct, _ := c.enc.EncryptValue(3)
	sq, err := c.eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.Decrypt(sq).Coeffs[0]; got != 9 {
		t.Errorf("3^2 = %d", got)
	}
}

func TestMulDepthTwo(t *testing.T) {
	c := newCtx(t, ParamsToy(), 10, true)
	ct2, _ := c.enc.EncryptValue(2)
	ct3, _ := c.enc.EncryptValue(3)
	p1, err := c.eval.Mul(ct2, ct3) // 6
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.eval.Mul(p1, ct2) // 12
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.Decrypt(p2).Coeffs[0]; got != 12 {
		t.Errorf("2*3*2 = %d", got)
	}
}

func TestMulRequiresDegreeOne(t *testing.T) {
	c := newCtx(t, ParamsToy(), 11, true)
	ct1, _ := c.enc.EncryptValue(1)
	ct2, _ := c.enc.EncryptValue(2)
	d2, _ := c.eval.MulNoRelin(ct1, ct2)
	if _, err := c.eval.MulNoRelin(d2, ct1); err == nil {
		t.Error("MulNoRelin on degree-2 operand should fail")
	}
}

func TestRelinearizeWithoutKey(t *testing.T) {
	c := newCtx(t, ParamsToy(), 12, false)
	ct1, _ := c.enc.EncryptValue(1)
	ct2, _ := c.enc.EncryptValue(2)
	d2, _ := c.eval.MulNoRelin(ct1, ct2)
	if _, err := c.eval.Relinearize(d2); err == nil {
		t.Error("Relinearize without key should fail")
	}
}

func TestNoiseBudgetDecreases(t *testing.T) {
	c := newCtx(t, ParamsToy(), 13, true)
	ct, _ := c.enc.EncryptValue(5)
	fresh := c.dec.NoiseBudget(ct)
	if fresh <= 0 {
		t.Fatalf("fresh budget %d should be positive", fresh)
	}
	sum := c.eval.Add(ct, ct)
	afterAdd := c.dec.NoiseBudget(sum)
	if afterAdd > fresh {
		t.Errorf("budget grew after add: %d -> %d", fresh, afterAdd)
	}
	prod, _ := c.eval.Mul(ct, ct)
	afterMul := c.dec.NoiseBudget(prod)
	if afterMul >= fresh {
		t.Errorf("budget did not shrink after mul: %d -> %d", fresh, afterMul)
	}
	if afterMul <= 0 {
		t.Errorf("budget exhausted after one mul: %d", afterMul)
	}
}

func TestAdditionChainNoiseGrowth(t *testing.T) {
	// Mean-style workload: summing many ciphertexts must stay decryptable.
	c := newCtx(t, ParamsToy(), 14, false)
	cts := make([]*Ciphertext, 64)
	var want uint64
	for i := range cts {
		v := uint64(i % 4)
		cts[i], _ = c.enc.EncryptValue(v)
		want += v
	}
	acc := cts[0]
	for _, ct := range cts[1:] {
		acc = c.eval.Add(acc, ct)
	}
	if got := c.dec.Decrypt(acc).Coeffs[0]; got != want%c.params.T {
		t.Errorf("sum of 64 ciphertexts = %d, want %d", got, want%c.params.T)
	}
	if b := c.dec.NoiseBudget(acc); b <= 0 {
		t.Errorf("budget exhausted after 64 adds: %d", b)
	}
}

func TestSec27AdditionRealParams(t *testing.T) {
	// The paper's smallest security level supports the addition workloads.
	c := newCtx(t, ParamsSec27(), 15, false)
	ct1, _ := c.enc.EncryptValue(6)
	ct2, _ := c.enc.EncryptValue(7)
	if got := c.dec.Decrypt(c.eval.Add(ct1, ct2)).Coeffs[0]; got != 13 {
		t.Errorf("sec27: 6+7 = %d", got)
	}
}

func TestSec54MulRealParams(t *testing.T) {
	if testing.Short() {
		t.Skip("real-parameter multiplication is slow")
	}
	c := newCtx(t, ParamsSec54(), 16, true)
	ct1, _ := c.enc.EncryptValue(11)
	ct2, _ := c.enc.EncryptValue(13)
	prod, err := c.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.Decrypt(prod).Coeffs[0]; got != (11*13)%c.params.T {
		t.Errorf("sec54: 11*13 mod %d = %d", c.params.T, got)
	}
}
