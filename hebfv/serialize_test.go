package hebfv

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bfv"
	"repro/internal/poly"
)

// The facade format is the versioned header plus the internal binary
// formats verbatim — these tests round-trip facade blobs against
// internal/bfv's serializers directly.

const headerLen = 4 + 1 + 1 + 4 + 4 + 8 + 4 // magic | ver | kind | N | W | T | base

func TestSerializeCiphertextAgainstInternal(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(20))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptSlots([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// The payload after the facade header is exactly the internal
	// ciphertext record: internal/bfv must parse it…
	payload := blob[headerLen:]
	internal, err := bfv.ReadCiphertextBacked(bytes.NewReader(payload), ctx.params, nil)
	if err != nil {
		t.Fatalf("internal reader rejects facade payload: %v", err)
	}
	same := internal.Equal(ct.pinForced())
	ct.unpin()
	if !same {
		t.Fatal("internal reader decoded a different ciphertext")
	}
	// …and re-serializing through internal/bfv reproduces the payload.
	var re bytes.Buffer
	if err := internal.Serialize(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), payload) {
		t.Fatal("internal serializer and facade payload disagree")
	}

	// Facade round trip.
	back, err := ctx.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ct) {
		t.Fatal("facade ciphertext round trip differs")
	}
}

func TestSerializeKeySetAgainstInternal(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(21), WithRotations(1, 3), WithColumnRotation())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ctx.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the payload with the internal readers.
	r := bytes.NewReader(blob[headerLen:])
	flags, err := r.ReadByte()
	if err != nil || flags&keySetHasSecret == 0 {
		t.Fatalf("flags byte: %x, %v", flags, err)
	}
	sk, err := bfv.ReadSecretKey(r, ctx.params)
	if err != nil {
		t.Fatalf("internal secret-key reader: %v", err)
	}
	if !sk.S.Equal(ctx.sk.S) {
		t.Fatal("secret key differs through the internal reader")
	}
	pk, err := bfv.ReadPublicKey(r, ctx.params)
	if err != nil {
		t.Fatalf("internal public-key reader: %v", err)
	}
	if !pk.P0.Equal(ctx.pk.P0) || !pk.P1.Equal(ctx.pk.P1) {
		t.Fatal("public key differs through the internal reader")
	}
	if _, err := bfv.ReadRelinKey(r, ctx.params); err != nil {
		t.Fatalf("internal relin-key reader: %v", err)
	}
	var count [4]byte
	if _, err := r.Read(count[:]); err != nil {
		t.Fatal(err)
	}
	wantKeys := len(ctx.gks)
	if int(count[0]) != wantKeys || count[1]|count[2]|count[3] != 0 {
		t.Fatalf("Galois key count bytes %v, want %d", count, wantKeys)
	}
	for i := 0; i < wantKeys; i++ {
		gk, err := bfv.ReadGaloisKey(r, ctx.params)
		if err != nil {
			t.Fatalf("internal Galois-key reader at %d: %v", i, err)
		}
		if _, ok := ctx.gks[gk.G]; !ok {
			t.Fatalf("exported Galois key for unknown element %d", gk.G)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}

	// Facade round trip: the restored context decrypts the original's
	// ciphertexts and already holds the rotation keys.
	restored, err := New(WithInsecureToyParameters(), WithKeySet(blob), WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptSlots([]uint64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	over, err := restored.UnmarshalCiphertext(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.DecryptSlots(over)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("restored context decrypts %v", got[:3])
	}
	rotA, err := ctx.RotateRows(ct, 3)
	if err != nil {
		t.Fatal(err)
	}
	rotB, err := restored.RotateRows(over, 3)
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := rotA.MarshalBinary()
	bb, _ := rotB.MarshalBinary()
	if !bytes.Equal(ba, bb) {
		t.Fatal("restored context rotates differently")
	}
}

func TestSerializeRejectsMismatch(t *testing.T) {
	toy, err := New(WithInsecureToyParameters(), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	sec27, err := New(WithSecurityLevel(27), WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := toy.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sec27.UnmarshalCiphertext(blob); err == nil {
		t.Fatal("cross-parameter ciphertext accepted")
	}
	if _, err := toy.UnmarshalCiphertext(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
	if _, err := toy.UnmarshalCiphertext([]byte("not a hebfv blob at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	// A key-set blob is not a ciphertext.
	keys, err := toy.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := toy.UnmarshalCiphertext(keys); err == nil {
		t.Fatal("key set accepted as ciphertext")
	}
	// Wrong version byte.
	bad := append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := toy.UnmarshalCiphertext(bad); err == nil {
		t.Fatal("future version accepted")
	}
	// ExportKeys with the secret on an evaluation-only context fails.
	pub, err := toy.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	evalOnly, err := New(WithInsecureToyParameters(), WithKeySet(pub), WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalOnly.ExportKeys(true); err == nil {
		t.Fatal("secret export from evaluation-only context accepted")
	}
}

// keySetBlob encodes an evaluation-only key set of c's public key, rlk
// and gks the way ExportKeysTo does.
func keySetBlob(t *testing.T, c *Context, rlk *bfv.RelinKey, gks []*bfv.GaloisKey) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.writeHeader(&buf, kindKeySet); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if err := c.pk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rlk.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte{byte(len(gks)), 0, 0, 0})
	for _, gk := range gks {
		if err := gk.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestImportRefusesWrongDigitCount: a key set whose relinearization or
// Galois key has a digit count other than the parameters' is a corrupt
// blob. At the 27-bit level a relinearization key with 2 of its 3 digits
// used to import and make Mul(3, 4) decrypt to 2.
func TestImportRefusesWrongDigitCount(t *testing.T) {
	c, err := New(WithSecurityLevel(27), WithSeed(26), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	gks := make([]*bfv.GaloisKey, 0, len(c.gks))
	for _, gk := range c.gks {
		gks = append(gks, gk)
	}
	if len(gks) != 1 {
		t.Fatalf("want one Galois key, have %d", len(gks))
	}
	exported, err := c.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(keySetBlob(t, c, c.rlk, gks), exported) {
		t.Fatal("keySetBlob does not reproduce ExportKeys(false)")
	}
	resize := func(k0, k1 []*poly.Poly, n int) (r0, r1 []*poly.Poly) {
		for i := 0; i < n; i++ {
			r0, r1 = append(r0, k0[i%len(k0)]), append(r1, k1[i%len(k1)])
		}
		return r0, r1
	}
	digits := c.params.RelinDigits()
	for _, n := range []int{digits - 1, digits + 1} {
		rlk := &bfv.RelinKey{}
		rlk.BaseBits = c.rlk.BaseBits
		rlk.K0, rlk.K1 = resize(c.rlk.K0, c.rlk.K1, n)
		gk := &bfv.GaloisKey{G: gks[0].G}
		gk.BaseBits = gks[0].BaseBits
		gk.K0, gk.K1 = resize(gks[0].K0, gks[0].K1, n)
		for what, blob := range map[string][]byte{
			"relinearization": keySetBlob(t, c, rlk, gks),
			"Galois":          keySetBlob(t, c, c.rlk, []*bfv.GaloisKey{gk}),
		} {
			_, err := New(WithSecurityLevel(27), WithKeySet(blob))
			if !errors.Is(err, ErrCorruptBlob) {
				t.Errorf("%s key with %d of %d digits: err = %v, want ErrCorruptBlob", what, n, digits, err)
			}
		}
	}
}
