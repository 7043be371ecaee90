package hebfv

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestWireFormatIsPinned hashes a seeded context's full and
// evaluation-only key-set exports and one ciphertext blob. The expected
// digests were measured once, before the key records shared a codec, and
// are never edited: hebfv/serve identifies a tenant by KeySetHash, the
// sha256 of the evaluation-only export, so a byte change orphans every
// onboarded tenant.
func TestWireFormatIsPinned(t *testing.T) {
	const (
		wantFull       = "11aeb8d742e30fcd9d4e78f9acdfe8c2d5a3276f04467ffcfc962983fd013732"
		wantEvalOnly   = "fcf32402520a27dd5c5dc40a874b9fe3f9264fbea7ee1fd8dc035ae21ba5686a"
		wantCiphertext = "842c668cf556dd35c594c3b7f9c6a16bea425b84aed6bfbbec7fd24910580c3f"
	)
	ctx, err := New(WithInsecureToyParameters(), WithSeed(0x5eed), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	full, err := ctx.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}
	evalOnly, err := ctx.ExportKeys(false)
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
	if got := hash(full); got != wantFull {
		t.Errorf("ExportKeys(true): sha256 %s, want %s", got, wantFull)
	}
	if got := hash(evalOnly); got != wantEvalOnly {
		t.Errorf("ExportKeys(false): sha256 %s, want %s", got, wantEvalOnly)
	}
	if got := ctx.KeySetHash(); hex.EncodeToString(got[:]) != wantEvalOnly {
		t.Errorf("KeySetHash: %x, want %s", got, wantEvalOnly)
	}
	if got := hash(blob); got != wantCiphertext {
		t.Errorf("MarshalBinary: sha256 %s, want %s", got, wantCiphertext)
	}
}
