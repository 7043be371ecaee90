package hebfv

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSlotPermIsPermutation checks the logical→NTT slot mapping is a
// bijection at every supported ring degree.
func TestSlotPermIsPermutation(t *testing.T) {
	for _, n := range []int{8, 64, 1024, 2048, 4096} {
		perm := slotPerm(n)
		seen := make([]bool, n)
		for ell, j := range perm {
			if j < 0 || j >= n {
				t.Fatalf("n=%d: slot %d maps outside the ring (%d)", n, ell, j)
			}
			if seen[j] {
				t.Fatalf("n=%d: NTT slot %d hit twice", n, j)
			}
			seen[j] = true
		}
	}
}

// runSlotRotationProperty is the satellite property test: RotateRows(k)
// through the facade must be bit-identical on the schoolbook and
// dcrt-native backends for random k — the slot→Galois mapping and the
// key-switching convention agree across backends or nothing matches.
// Keys are shared through an exported key set so both contexts evaluate
// under identical key material.
func runSlotRotationProperty(t *testing.T, level int, seed int64, steps int, edges ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	ref, err := New(WithSecurityLevel(level), WithSeed(uint64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	row := ref.RowSlots()
	ks := make([]int, steps)
	for i := range ks {
		ks[i] = rng.Intn(2*row) - row // random steps, both signs, with wrap
	}
	// Edge steps ride along (note -1 and row-1 share one Galois element).
	ks = append(ks, edges...)

	refK, err := New(WithSecurityLevel(level), WithSeed(uint64(seed)), WithRotations(ks...))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := refK.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}

	native, err := New(WithSecurityLevel(level), WithKeySet(keys), WithSeed(uint64(seed)+1), WithBackend("dcrt-native"))
	if err != nil {
		t.Fatal(err)
	}
	school, err := New(WithSecurityLevel(level), WithKeySet(keys), WithSeed(uint64(seed)+2), WithBackend("schoolbook"))
	if err != nil {
		t.Fatal(err)
	}

	vals := make([]uint64, native.Slots())
	for i := range vals {
		vals[i] = rng.Uint64() % native.PlaintextModulus()
	}
	ct, err := native.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctS, err := school.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range ks {
		rotN, err := native.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		rotS, err := school.RotateRows(ctS, k)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := rotN.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bs, err := rotS.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bn, bs) {
			t.Fatalf("level %d, k=%d: facade rotation differs between schoolbook and dcrt-native", level, k)
		}
		// The native side must also decode to the rotated slot model.
		got, err := native.DecryptSlots(rotN)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for col := 0; col < row; col++ {
				want := vals[r*row+((col+k%row+row)%row)]
				if got[r*row+col] != want {
					t.Fatalf("level %d, k=%d: slot (%d,%d) = %d, want %d", level, k, r, col, got[r*row+col], want)
				}
			}
		}
	}
}

func TestSlotRotationPropertySec27(t *testing.T) {
	// t=65537 leaves no noise headroom for rotations at the 27-bit level,
	// so decryption is not meaningful there — but bit-identity across
	// backends still is, and DecryptSlots is only checked against the
	// model where the budget allows. Use the bit-identity-only variant.
	runSlotRotationBitIdentity(t, 27, 2701, 4)
}

func TestSlotRotationPropertySec54(t *testing.T) {
	runSlotRotationProperty(t, 54, 5401, 3, 1, -1)
}

func TestSlotRotationPropertySec109(t *testing.T) {
	runSlotRotationProperty(t, 109, 10901, 3, 1, -1)
}

// runSlotRotationBitIdentity is the property test without the
// decode-against-model check, for parameter sets whose noise budget
// cannot absorb a key switch (sec27 with the batching modulus).
func runSlotRotationBitIdentity(t *testing.T, level int, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref, err := New(WithSecurityLevel(level), WithSeed(uint64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	row := ref.RowSlots()
	ks := make([]int, steps)
	for i := range ks {
		ks[i] = 1 + rng.Intn(row-1)
	}
	refK, err := New(WithSecurityLevel(level), WithSeed(uint64(seed)), WithRotations(ks...))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := refK.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}
	native, err := New(WithSecurityLevel(level), WithKeySet(keys), WithSeed(uint64(seed)+1))
	if err != nil {
		t.Fatal(err)
	}
	school, err := New(WithSecurityLevel(level), WithKeySet(keys), WithSeed(uint64(seed)+2), WithBackend("schoolbook"))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, native.Slots())
	for i := range vals {
		vals[i] = rng.Uint64() % native.PlaintextModulus()
	}
	ct, err := native.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctS, err := school.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		rotN, err := native.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		rotS, err := school.RotateRows(ctS, k)
		if err != nil {
			t.Fatal(err)
		}
		bn, _ := rotN.MarshalBinary()
		bs, _ := rotS.MarshalBinary()
		if !bytes.Equal(bn, bs) {
			t.Fatalf("level %d, k=%d: facade rotation differs between schoolbook and dcrt-native", level, k)
		}
	}
}
