package bfv

import (
	"testing"

	"repro/internal/sampling"
)

func samplingSource(seed uint64) *sampling.Source {
	return sampling.NewSourceFromUint64(seed)
}

func TestGaloisKeyRequiresOddElement(t *testing.T) {
	c := newCtx(t, ParamsToy(), 30, false)
	kg := NewKeyGenerator(c.params, samplingSource(30))
	if _, err := kg.GenGaloisKey(c.sk, 4); err == nil {
		t.Error("even Galois element accepted")
	}
	if _, err := kg.GenGaloisKey(c.sk, 3); err != nil {
		t.Errorf("odd Galois element rejected: %v", err)
	}
}

func TestApplyGaloisMatchesPlaintextAutomorphism(t *testing.T) {
	c := newCtx(t, ParamsToy(), 31, false)
	kg := NewKeyGenerator(c.params, samplingSource(31))

	pt := NewPlaintext(c.params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64((3*i + 1) % int(c.params.T))
	}
	ct, err := c.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []uint64{3, 5, uint64(2*c.params.N - 1)} {
		gk, err := kg.GenGaloisKey(c.sk, g)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := c.eval.ApplyGalois(ct, gk)
		if err != nil {
			t.Fatal(err)
		}
		if rot.Degree() != 1 {
			t.Fatalf("g=%d: output degree %d", g, rot.Degree())
		}
		got := c.dec.Decrypt(rot)
		want := galoisPlaintext(c.params, pt, g)
		for i := range want.Coeffs {
			if got.Coeffs[i] != want.Coeffs[i] {
				t.Fatalf("g=%d coeff %d: got %d want %d", g, i, got.Coeffs[i], want.Coeffs[i])
			}
		}
	}
}

func TestGaloisComposition(t *testing.T) {
	// τ_g1 ∘ τ_g2 = τ_{g1·g2 mod 2N} on plaintexts.
	params := ParamsToy()
	pt := NewPlaintext(params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i % int(params.T))
	}
	g1, g2 := uint64(3), uint64(5)
	composed := galoisPlaintext(params, galoisPlaintext(params, pt, g2), g1)
	direct := galoisPlaintext(params, pt, (g1*g2)%uint64(2*params.N))
	for i := range direct.Coeffs {
		if composed.Coeffs[i] != direct.Coeffs[i] {
			t.Fatalf("composition mismatch at %d", i)
		}
	}
}

func TestGaloisIdentity(t *testing.T) {
	// g = 1 is the identity automorphism.
	c := newCtx(t, ParamsToy(), 32, false)
	kg := NewKeyGenerator(c.params, samplingSource(32))
	gk, err := kg.GenGaloisKey(c.sk, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := c.enc.EncryptValue(7)
	rot, err := c.eval.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.Decrypt(rot).Coeffs[0]; got != 7 {
		t.Errorf("identity automorphism decrypts to %d", got)
	}
}

func TestApplyGaloisRejectsBadInputs(t *testing.T) {
	c := newCtx(t, ParamsToy(), 33, true)
	ct, _ := c.enc.EncryptValue(1)
	if _, err := c.eval.ApplyGalois(ct, nil); err == nil {
		t.Error("nil Galois key accepted")
	}
	d2, _ := c.eval.MulNoRelin(ct, ct)
	kg := NewKeyGenerator(c.params, samplingSource(33))
	gk, _ := kg.GenGaloisKey(c.sk, 3)
	if _, err := c.eval.ApplyGalois(d2, gk); err == nil {
		t.Error("degree-2 ciphertext accepted")
	}
}

func TestGaloisThenAdd(t *testing.T) {
	// Automorphism commutes with addition: τ(a) + τ(b) = τ(a+b).
	c := newCtx(t, ParamsToy(), 34, false)
	kg := NewKeyGenerator(c.params, samplingSource(34))
	gk, err := kg.GenGaloisKey(c.sk, 3)
	if err != nil {
		t.Fatal(err)
	}
	pa := NewPlaintext(c.params)
	pb := NewPlaintext(c.params)
	for i := range pa.Coeffs {
		pa.Coeffs[i] = uint64(i % 7)
		pb.Coeffs[i] = uint64(i % 5)
	}
	cta, _ := c.enc.Encrypt(pa)
	ctb, _ := c.enc.Encrypt(pb)

	lhsCt, err := c.eval.ApplyGalois(c.eval.Add(cta, ctb), gk)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.eval.ApplyGalois(cta, gk)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.eval.ApplyGalois(ctb, gk)
	if err != nil {
		t.Fatal(err)
	}
	rhsCt := c.eval.Add(ra, rb)

	lhs := c.dec.Decrypt(lhsCt)
	rhs := c.dec.Decrypt(rhsCt)
	for i := range lhs.Coeffs {
		if lhs.Coeffs[i] != rhs.Coeffs[i] {
			t.Fatalf("commutation mismatch at %d", i)
		}
	}
}

// galoisPlaintext applies τ_g to a plaintext — the reference the
// homomorphic version must match after decryption.
func galoisPlaintext(params *Parameters, pt *Plaintext, g uint64) *Plaintext {
	n := params.N
	out := NewPlaintext(params)
	t := params.T
	for i := 0; i < n; i++ {
		v := pt.Coeffs[i] % t
		j := int((uint64(i) * g) % uint64(2*n))
		if j < n {
			out.Coeffs[j] = (out.Coeffs[j] + v) % t
		} else {
			out.Coeffs[j-n] = (out.Coeffs[j-n] + t - v) % t
		}
	}
	return out
}
