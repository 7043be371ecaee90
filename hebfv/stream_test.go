package hebfv

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestStreamingRoundTrip pins the streaming entry points against the
// []byte wrappers: MarshalTo writes the same bytes MarshalBinary
// returns, ReadCiphertext consumes exactly one record (so records read
// back to back off one stream), and the decrypted results match.
func TestStreamingRoundTrip(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := ctx.EncryptValue(11)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := ctx.EncryptValue(13)
	if err != nil {
		t.Fatal(err)
	}
	blob1, err := ct1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := ct1.MarshalTo(&streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), blob1) {
		t.Fatalf("MarshalTo and MarshalBinary disagree: %d vs %d bytes", streamed.Len(), len(blob1))
	}

	// Two records back to back off one reader, like an eval request body.
	if err := ct2.MarshalTo(&streamed); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(streamed.Bytes())
	got1, err := ctx.ReadCiphertext(r)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ctx.ReadCiphertext(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after two records", r.Len())
	}
	for i, pair := range []struct {
		got  *Ciphertext
		want uint64
	}{{got1, 11}, {got2, 13}} {
		v, err := ctx.DecryptValue(pair.got)
		if err != nil {
			t.Fatal(err)
		}
		if v != pair.want {
			t.Fatalf("record %d: decrypted %d, want %d", i, v, pair.want)
		}
	}
}

// TestMarshaledBytesExact pins the size accounting for all three handle
// kinds — fresh, deferred rotation, deferred product — against the
// actual encoding, without the deferred handles being forced by the
// size query itself.
func TestMarshaledBytesExact(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(3), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, ctx.Slots())
	for i := range vals {
		vals[i] = uint64(i)
	}
	fresh, err := ctx.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	rots, err := ctx.RotateRowsMany(fresh, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ctx.Mul(fresh, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ct   *Ciphertext
	}{{"fresh", fresh}, {"deferred-rotation", rots[0]}, {"deferred-product", prod}} {
		want := tc.ct.MarshaledBytes()
		if cb := ctx.CiphertextBytes(); want != cb {
			t.Errorf("%s: MarshaledBytes %d != CiphertextBytes %d", tc.name, want, cb)
		}
		blob, err := tc.ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != want {
			t.Errorf("%s: encoded %d bytes, MarshaledBytes said %d", tc.name, len(blob), want)
		}
	}
}

// TestKeySetHash pins the fingerprint semantics: the hash is the
// sha256 of the evaluation-only export, a context restored from that
// export hashes identically (the client/server agreement the serving
// cache keys on), and deriving a new Galois key changes it.
func TestKeySetHash(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(5), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ctx.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ctx.KeySetHash(), sha256.Sum256(blob); got != want {
		t.Fatalf("KeySetHash != sha256 of the evaluation-only export")
	}
	restored, err := New(WithInsecureToyParameters(), WithKeySet(blob))
	if err != nil {
		t.Fatal(err)
	}
	if restored.KeySetHash() != ctx.KeySetHash() {
		t.Fatalf("restored context fingerprint differs from its source")
	}
	// A new rotation key extends the exported key set: new fingerprint.
	before := ctx.KeySetHash()
	ct, err := ctx.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RotateRows(ct, 2); err != nil {
		t.Fatal(err)
	}
	if ctx.KeySetHash() == before {
		t.Fatalf("fingerprint unchanged after deriving a new Galois key")
	}
}

// TestWithKeySetFrom pins the streaming restore path: a context built
// from an io.Reader matches the []byte restore, consumes exactly one
// record, and the two options are mutually exclusive.
func TestWithKeySetFrom(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(9), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ctx.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing bytes after the record must stay unread.
	r := bytes.NewReader(append(append([]byte{}, blob...), 0xEE))
	restored, err := New(WithInsecureToyParameters(), WithKeySetFrom(r))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("WithKeySetFrom read past the record: %d trailing bytes left", r.Len())
	}
	if restored.KeySetHash() != ctx.KeySetHash() {
		t.Fatalf("streamed restore fingerprint differs")
	}
	if restored.CanDecrypt() {
		t.Fatalf("evaluation-only restore can decrypt")
	}
	if _, err := New(WithInsecureToyParameters(), WithKeySet(blob), WithKeySetFrom(bytes.NewReader(blob))); err == nil {
		t.Fatalf("WithKeySet + WithKeySetFrom accepted together")
	}
}

// TestContextClose pins the lifecycle contract: every operation class
// fails typed after Close, and Close is idempotent.
func TestContextClose(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptValue(4)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := ctx.Add(ct, ct); !errors.Is(err, ErrContextClosed) {
		t.Errorf("Add after Close: %v, want ErrContextClosed", err)
	}
	if _, err := ctx.ReadCiphertext(bytes.NewReader(blob)); !errors.Is(err, ErrContextClosed) {
		t.Errorf("ReadCiphertext after Close: %v, want ErrContextClosed", err)
	}
	if err := ctx.ExportKeysTo(io.Discard, false); !errors.Is(err, ErrContextClosed) {
		t.Errorf("ExportKeysTo after Close: %v, want ErrContextClosed", err)
	}
	if _, err := ctx.EncryptSlots([]uint64{1}); !errors.Is(err, ErrContextClosed) {
		t.Errorf("EncryptSlots after Close: %v, want ErrContextClosed", err)
	}
	if ctx.KeySetHash() != ([32]byte{}) {
		t.Errorf("KeySetHash after Close is not the zero hash")
	}
}

// TestStreamingMarshalAllocs pins the tentpole memory property: at
// n=4096 a ciphertext encodes to ~256 KiB, and streaming it must cost
// O(chunk) heap, not O(blob) — the 32 KiB chunk buffer is pooled, so
// the steady-state per-op allocation is bounded by small header
// scratch. A buffered single-blob encoder would show up here as
// hundreds of KiB per op.
func TestStreamingMarshalAllocs(t *testing.T) {
	ctx, err := New(WithSecurityLevel(109), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	blobSize := ct.MarshaledBytes()
	if blobSize < 100<<10 {
		t.Fatalf("n=4096 ciphertext is %d bytes; the bound below assumes a ~128 KiB blob", blobSize)
	}
	if err := ct.MarshalTo(io.Discard); err != nil { // warm the chunk pool
		t.Fatal(err)
	}
	const iters = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if err := ct.MarshalTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / iters
	// O(chunk) bound: at most two 32 KiB chunks per op, half the O(blob)
	// cost a staging encoder would pay.
	if perOp > 64<<10 {
		t.Fatalf("MarshalTo allocates %d B/op for a %d B ciphertext; want O(chunk) (< 64 KiB)", perOp, blobSize)
	}
	t.Logf("MarshalTo: %d B/op for a %d B ciphertext", perOp, blobSize)
}
