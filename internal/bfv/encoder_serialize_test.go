package bfv

import (
	"bytes"
	"testing"

	"repro/internal/limb32"
)

// limbCounts aliases limb32.Counts for brevity in tests.
type limbCounts = limb32.Counts

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
