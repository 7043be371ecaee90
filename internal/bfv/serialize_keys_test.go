package bfv

import (
	"bytes"
	"testing"
)

func TestPublicKeySerializationRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 40, false)
	var buf bytes.Buffer
	if err := c.pk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPublicKey(&buf, c.params)
	if err != nil {
		t.Fatal(err)
	}
	if !back.P0.Equal(c.pk.P0) || !back.P1.Equal(c.pk.P1) {
		t.Fatal("public key round trip differs")
	}
	// A deserialized public key must produce decryptable ciphertexts.
	enc := NewEncryptor(c.params, back, samplingSource(40))
	ct, err := enc.EncryptValue(6)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.Decrypt(ct).Coeffs[0]; got != 6 {
		t.Errorf("ciphertext from deserialized pk decrypts to %d", got)
	}
}

func TestRelinKeySerializationRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 41, true)
	var buf bytes.Buffer
	if err := c.rlk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRelinKey(&buf, c.params)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.K0) != len(c.rlk.K0) || back.BaseBits != c.rlk.BaseBits {
		t.Fatal("relin key shape differs")
	}
	for i := range back.K0 {
		if !back.K0[i].Equal(c.rlk.K0[i]) || !back.K1[i].Equal(c.rlk.K1[i]) {
			t.Fatalf("relin key digit %d differs", i)
		}
	}
	// Multiplication with the deserialized key must still relinearize
	// correctly.
	eval := NewEvaluator(c.params, back)
	ct1, _ := c.enc.EncryptValue(3)
	ct2, _ := c.enc.EncryptValue(4)
	prod, err := eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.dec.Decrypt(prod).Coeffs[0]; got != 12 {
		t.Errorf("mul with deserialized rlk = %d", got)
	}
}

func TestKeySerializationRejectsGarbage(t *testing.T) {
	params := ParamsToy()
	if _, err := ReadPublicKey(bytes.NewReader([]byte("BFVxXXXXXXXX")), params); err == nil {
		t.Error("bad magic accepted for public key")
	}
	if _, err := ReadRelinKey(bytes.NewReader([]byte("BFVp")), params); err == nil {
		t.Error("wrong magic accepted for relin key")
	}
	// Shape mismatch: toy-params key read under sec27.
	c := newCtx(t, params, 42, true)
	var buf bytes.Buffer
	c.pk.Serialize(&buf)
	if _, err := ReadPublicKey(&buf, ParamsSec27()); err == nil {
		t.Error("public key shape mismatch accepted")
	}
	buf.Reset()
	c.rlk.Serialize(&buf)
	if _, err := ReadRelinKey(&buf, ParamsSec27()); err == nil {
		t.Error("relin key shape mismatch accepted")
	}
	// Truncation.
	buf.Reset()
	c.rlk.Serialize(&buf)
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := ReadRelinKey(bytes.NewReader(trunc), params); err == nil {
		t.Error("truncated relin key accepted")
	}
}

func TestGaloisKeySerializationRoundTrip(t *testing.T) {
	c := newCtx(t, ParamsToy(), 43, false)
	kg := NewKeyGenerator(c.params, samplingSource(43))
	gk, err := kg.GenGaloisKey(c.sk, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGaloisKey(&buf, c.params)
	if err != nil {
		t.Fatal(err)
	}
	if back.G != gk.G || back.BaseBits != gk.BaseBits || len(back.K0) != len(gk.K0) {
		t.Fatal("Galois key shape differs")
	}
	for i := range back.K0 {
		if !back.K0[i].Equal(gk.K0[i]) || !back.K1[i].Equal(gk.K1[i]) {
			t.Fatalf("Galois key digit %d differs", i)
		}
	}
	// Rotation through the deserialized key must be bit-identical to the
	// original key's.
	ct, _ := c.enc.EncryptValue(9)
	want, err := c.eval.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.eval.ApplyGalois(ct, back)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("rotation with deserialized Galois key differs")
	}
}

func TestGaloisKeySerializationRejectsGarbage(t *testing.T) {
	params := ParamsToy()
	if _, err := ReadGaloisKey(bytes.NewReader([]byte("BFVrXXXXXXXXXXXX")), params); err == nil {
		t.Error("wrong magic accepted for Galois key")
	}
	c := newCtx(t, params, 44, false)
	kg := NewKeyGenerator(c.params, samplingSource(44))
	gk, err := kg.GenGaloisKey(c.sk, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gk.Serialize(&buf)
	if _, err := ReadGaloisKey(&buf, ParamsSec27()); err == nil {
		t.Error("Galois key shape mismatch accepted")
	}
	buf.Reset()
	gk.Serialize(&buf)
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := ReadGaloisKey(bytes.NewReader(trunc), params); err == nil {
		t.Error("truncated Galois key accepted")
	}
	var empty bytes.Buffer
	if err := (&GaloisKey{G: 3}).Serialize(&empty); err == nil {
		t.Error("empty Galois key serialized")
	}
}

func TestRelinKeySerializeRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	bad := &RelinKey{}
	if err := bad.Serialize(&buf); err == nil {
		t.Error("empty relin key serialized")
	}
}
