package bfv

import (
	"bytes"
	"math/big"
	"strings"
	"testing"

	"repro/internal/limb32"
	"repro/internal/poly"
	"repro/internal/polypool"
)

func TestBatchEncoderRoundTrip(t *testing.T) {
	params := mustParams(64, prime109, 65537, 28) // t ≡ 1 mod 128
	be, err := NewBatchEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, params.N)
	for i := range vals {
		vals[i] = uint64(i * 31 % 65537)
	}
	pt, err := be.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	got := be.Decode(pt)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], vals[i])
		}
	}
}

func TestBatchEncoderSlotwiseOps(t *testing.T) {
	// SIMD property: homomorphic ops act slot-wise under batching.
	params := mustParams(64, prime109, 65537, 28)
	be, err := NewBatchEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	c := newCtx(t, params, 20, true)

	a := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	b := []uint64{2, 7, 1, 8, 2, 8, 1, 8}
	pa, _ := be.Encode(a)
	pb, _ := be.Encode(b)
	cta, _ := c.enc.Encrypt(pa)
	ctb, _ := c.enc.Encrypt(pb)

	sum := c.eval.Add(cta, ctb)
	gotSum := be.Decode(c.dec.Decrypt(sum))
	prod, err := c.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	gotProd := be.Decode(c.dec.Decrypt(prod))
	for i := range a {
		if gotSum[i] != a[i]+b[i] {
			t.Errorf("slot %d sum = %d, want %d", i, gotSum[i], a[i]+b[i])
		}
		if gotProd[i] != a[i]*b[i] {
			t.Errorf("slot %d prod = %d, want %d", i, gotProd[i], a[i]*b[i])
		}
	}
}

func TestBatchEncoderRejectsBadParams(t *testing.T) {
	if _, err := NewBatchEncoder(ParamsToy()); err == nil {
		t.Error("t=16 should not support batching (not prime)")
	}
	bad := mustParams(64, prime109, 97, 28) // 97 is prime but 96 % 128 != 0
	if _, err := NewBatchEncoder(bad); err == nil {
		t.Error("t=97, N=64 should not support batching")
	}
}

func TestBatchEncoderTooManyValues(t *testing.T) {
	params := mustParams(64, prime109, 65537, 28)
	be, _ := NewBatchEncoder(params)
	if _, err := be.Encode(make([]uint64, 65)); err == nil {
		t.Error("expected error for > N values")
	}
}

func TestCiphertextSerializationRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 21, false)
	ct, _ := c.enc.EncryptValue(9)
	var buf bytes.Buffer
	if err := ct.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	wantSize := 4 + 12 + 2*c.params.N*c.params.Q.W*4
	if buf.Len() != wantSize {
		t.Errorf("serialized size %d, want %d", buf.Len(), wantSize)
	}
	back, err := ReadCiphertextBacked(&buf, c.params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ct) {
		t.Error("ciphertext round trip differs")
	}
	if got := c.dec.Decrypt(back).Coeffs[0]; got != 9 {
		t.Errorf("deserialized ciphertext decrypts to %d", got)
	}
}

func TestSecretKeySerializationRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 22, false)
	var buf bytes.Buffer
	if err := c.sk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSecretKey(&buf, c.params)
	if err != nil {
		t.Fatal(err)
	}
	if !back.S.Equal(c.sk.S) {
		t.Error("secret key round trip differs")
	}
}

func TestSerializationRejectsGarbage(t *testing.T) {
	params := ParamsToy()
	if _, err := ReadCiphertextBacked(bytes.NewReader([]byte("nope")), params, nil); err == nil {
		t.Error("garbage accepted as ciphertext")
	}
	if _, err := ReadSecretKey(bytes.NewReader([]byte("BFVcxxxxxxxx")), params); err == nil {
		t.Error("wrong magic accepted as secret key")
	}
	// Truncated ciphertext.
	c := newCtx(t, params, 23, false)
	ct, _ := c.enc.EncryptValue(1)
	var buf bytes.Buffer
	ct.Serialize(&buf)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadCiphertextBacked(bytes.NewReader(trunc), params, nil); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	// Shape mismatch: serialize under toy params, read under sec27.
	buf.Reset()
	ct.Serialize(&buf)
	if _, err := ReadCiphertextBacked(&buf, ParamsSec27(), nil); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestDecodeBoundaryOracle pins the fused decode on the three paper
// moduli: every boundary coefficient — 0, 1, ⌊q/2⌋, ⌊q/2⌋ + 1, q − 1,
// and 2³²ᵏ − 1, 2³²ᵏ for each k below the limb width — round-trips bit for
// bit; a coefficient equal to q or to 2^(32W) − 1 is refused, the error
// names the first offending index when several are bad, and every pooled
// backing comes back.
func TestDecodeBoundaryOracle(t *testing.T) {
	for _, tc := range []struct {
		q    string
		base uint
	}{{prime27, 9}, {prime54, 18}, {prime109, 28}} {
		params := mustParams(64, tc.q, 16, tc.base)
		mod := params.Q
		one := big.NewInt(1)
		vals := []*big.Int{
			big.NewInt(0), one,
			new(big.Int).Set(mod.Half), new(big.Int).Add(mod.Half, one),
			new(big.Int).Sub(mod.QBig, one),
		}
		for k := 1; k < mod.W; k++ {
			v := new(big.Int).Lsh(one, uint(32*k))
			vals = append(vals, new(big.Int).Sub(v, one), v)
		}
		ct := &Ciphertext{Polys: []*poly.Poly{poly.NewPoly(params.N, mod.W), poly.NewPoly(params.N, mod.W)}}
		for j, v := range vals {
			ct.Polys[0].Coeff(3*j + 2).Set(limb32.FromBig(v, mod.W))
			ct.Polys[1].Coeff(params.N - 1 - j).Set(limb32.FromBig(v, mod.W))
		}
		// The fused flag itself must pass them: a false alarm would still
		// decode (the re-scan is exact), only slowly.
		var wire bytes.Buffer
		if err := writePoly(&wire, ct.Polys[1]); err != nil {
			t.Fatal(err)
		}
		q0, q1 := mod.Words()
		if decodeWords(make([]uint32, params.N*mod.W), wire.Bytes(), mod.W, q0, q1) != 1 {
			t.Fatalf("%d-bit q: the fused check flags a canonical coefficient", mod.Bits())
		}
		pool := polypool.New(1 << 20)
		decode := func() (*Ciphertext, error) {
			var buf bytes.Buffer
			if err := ct.Serialize(&buf); err != nil {
				t.Fatal(err)
			}
			return ReadCiphertextBacked(&buf, params, pool)
		}
		back, err := decode()
		if err != nil {
			t.Fatalf("%d-bit q: boundary coefficients refused: %v", mod.Bits(), err)
		}
		if !back.Equal(ct) {
			t.Fatalf("%d-bit q: boundary coefficients do not round-trip", mod.Bits())
		}
		for _, p := range back.Polys {
			pool.Put(p.C)
		}

		// Non-canonical coefficients in the second polynomial, so the first
		// one's backing is already drawn when the check fails.
		allOnes := ct.Polys[1].Coeff(40)
		for i := range allOnes {
			allOnes[i] = ^uint32(0)
		}
		for _, tail := range []bool{false, true} {
			want := "coefficient 40 "
			if tail {
				ct.Polys[1].Coeff(33).Set(mod.Q) // q itself, ahead of the all-ones word
				want = "coefficient 33 "
			}
			_, err := decode()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d-bit q: decode error %v, want one naming %q", mod.Bits(), err, want)
			}
			if s := pool.Stats(); s.InUse != 0 {
				t.Fatalf("%d-bit q: rejected decode leaks backings: %+v", mod.Bits(), s)
			}
		}
	}
}
