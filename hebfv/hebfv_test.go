package hebfv_test

import (
	"strings"
	"sync"
	"testing"

	"repro/hebfv"
)

// toyCtx builds a deterministic toy-parameter context.
func toyCtx(t *testing.T, seed uint64, opts ...hebfv.Option) *hebfv.Context {
	t.Helper()
	ctx, err := hebfv.New(append([]hebfv.Option{
		hebfv.WithInsecureToyParameters(),
		hebfv.WithSeed(seed),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestFacadeValueRoundTrip(t *testing.T) {
	ctx := toyCtx(t, 1)
	a, err := ctx.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValue(5)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(sum); err != nil || v != 8 {
		t.Fatalf("3+5 = %d, %v", v, err)
	}
	prod, err := ctx.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(prod); err != nil || v != 15 {
		t.Fatalf("3*5 = %d, %v", v, err)
	}
	diff, err := ctx.Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(diff); err != nil || v != 2 {
		t.Fatalf("5-3 = %d, %v", v, err)
	}
	sq, err := ctx.Square(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(sq); err != nil || v != 9 {
		t.Fatalf("3^2 = %d, %v", v, err)
	}
	if budget, err := ctx.NoiseBudget(prod); err != nil || budget <= 0 {
		t.Fatalf("noise budget %d, %v", budget, err)
	}
}

func TestFacadeSlotRoundTripAndPlainOps(t *testing.T) {
	ctx := toyCtx(t, 2)
	n := ctx.Slots()
	if n != ctx.N() || ctx.RowSlots() != n/2 {
		t.Fatalf("slot geometry: slots=%d rows of %d, N=%d", n, ctx.RowSlots(), ctx.N())
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(3*i + 1)
	}
	ct, err := ctx.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.DecryptSlots(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i]%ctx.PlaintextModulus() {
			t.Fatalf("slot %d: got %d want %d", i, got[i], vals[i])
		}
	}
	// Slot-wise plaintext operations.
	mask := make([]uint64, n)
	for i := range mask {
		mask[i] = uint64(i % 3)
	}
	pt, err := ctx.EncodeSlots(mask)
	if err != nil {
		t.Fatal(err)
	}
	summed, err := ctx.AddPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := ctx.MulPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	sumSlots, err := ctx.DecryptSlots(summed)
	if err != nil {
		t.Fatal(err)
	}
	mulSlots, err := ctx.DecryptSlots(scaled)
	if err != nil {
		t.Fatal(err)
	}
	tm := ctx.PlaintextModulus()
	for i := range vals {
		if sumSlots[i] != (vals[i]+mask[i])%tm {
			t.Fatalf("AddPlain slot %d: got %d", i, sumSlots[i])
		}
		if mulSlots[i] != (vals[i]*mask[i])%tm {
			t.Fatalf("MulPlain slot %d: got %d", i, mulSlots[i])
		}
	}
}

func TestFacadeRotationSemantics(t *testing.T) {
	ctx := toyCtx(t, 3)
	n, row := ctx.Slots(), ctx.RowSlots()
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	ct, err := ctx.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, row - 1, -1, row, 0, 7} {
		rot, err := ctx.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.DecryptSlots(rot)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for col := 0; col < row; col++ {
				want := vals[r*row+((col+k%row+row)%row)]
				if got[r*row+col] != want {
					t.Fatalf("RotateRows(%d) slot (%d,%d): got %d want %d", k, r, col, got[r*row+col], want)
				}
			}
		}
	}
	swapped, err := ctx.RotateColumns(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.DecryptSlots(swapped)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < row; col++ {
		if got[col] != vals[row+col] || got[row+col] != vals[col] {
			t.Fatalf("RotateColumns column %d: got (%d,%d)", col, got[col], got[row+col])
		}
	}
	// InnerSum replicates the total of all slots into every slot.
	total := uint64(0)
	for _, v := range vals {
		total += v
	}
	total %= ctx.PlaintextModulus()
	inner, err := ctx.InnerSum(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ctx.DecryptSlots(inner)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != total {
			t.Fatalf("InnerSum slot %d: got %d want %d", i, got[i], total)
		}
	}
}

// TestFacadeDifferentialBackends proves the acceptance contract: facade
// results are bit-identical across backends — RotateRows and InnerSum
// slot semantics included. Key material is shared through ExportKeys so
// every context evaluates under identical keys, and ciphertexts cross
// contexts through the versioned serialization.
func TestFacadeDifferentialBackends(t *testing.T) {
	ref := toyCtx(t, 4)
	n := ref.Slots()
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(7*i + 2)
	}
	ctA, err := ref.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := ref.EncryptValue(9)
	if err != nil {
		t.Fatal(err)
	}
	// Derive every Galois key the workload needs before exporting.
	if _, err := ref.RotateRows(ctA, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InnerSum(ctA); err != nil {
		t.Fatal(err)
	}
	keys, err := ref.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}
	rawA, err := ctA.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := ctB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	type results struct {
		add, sub, mul, square, rot, cols, inner, rotSum, sum []byte
		rotManySum, mulPlusRot                               []byte
		rotMany                                              [][]byte
	}
	run := func(t *testing.T, backend string) results {
		ctx, err := hebfv.New(
			hebfv.WithInsecureToyParameters(),
			hebfv.WithBackend(backend),
			hebfv.WithKeySet(keys),
			hebfv.WithSeed(99), // encryption unused; keys come from the set
		)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ctx.UnmarshalCiphertext(rawA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctx.UnmarshalCiphertext(rawB)
		if err != nil {
			t.Fatal(err)
		}
		marshal := func(ct *hebfv.Ciphertext, err error) []byte {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			data, err := ct.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		var r results
		r.add = marshal(ctx.Add(a, b))
		r.sub = marshal(ctx.Sub(a, b))
		r.mul = marshal(ctx.Mul(a, b))
		r.square = marshal(ctx.Square(a))
		r.rot = marshal(ctx.RotateRows(a, 3))
		r.cols = marshal(ctx.RotateColumns(a))
		r.inner = marshal(ctx.InnerSum(a))
		rotSum, err := ctx.RotateRowsAndSum([]*hebfv.Ciphertext{a}, []int{1, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		r.rotSum = marshal(rotSum[0], nil)
		r.sum = marshal(ctx.Sum([]*hebfv.Ciphertext{a, b, a}))
		many, err := ctx.RotateRowsMany(a, []int{1, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		// Before anything forces them, the rotations (deferred on
		// dcrt-native) are summed — a fused NTT-domain fold — and one is
		// added to a deferred product, which mixes domains and so falls
		// back to coefficients.
		r.rotManySum = marshal(ctx.Sum(many))
		prod, err := ctx.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r.mulPlusRot = marshal(ctx.Add(prod, many[1]))
		for _, ct := range many {
			r.rotMany = append(r.rotMany, marshal(ct, nil))
		}
		return r
	}

	want := run(t, "dcrt-native")
	for _, backend := range []string{"schoolbook", "pim"} {
		got := run(t, backend)
		pairs := []struct {
			name       string
			have, need []byte
		}{
			{"Add", got.add, want.add},
			{"Sub", got.sub, want.sub},
			{"Mul", got.mul, want.mul},
			{"Square", got.square, want.square},
			{"RotateRows", got.rot, want.rot},
			{"RotateColumns", got.cols, want.cols},
			{"InnerSum", got.inner, want.inner},
			{"RotateRowsAndSum", got.rotSum, want.rotSum},
			{"Sum", got.sum, want.sum},
			{"Sum(RotateRowsMany)", got.rotManySum, want.rotManySum},
			{"Add(Mul, RotateRowsMany)", got.mulPlusRot, want.mulPlusRot},
		}
		for _, p := range pairs {
			if string(p.have) != string(p.need) {
				t.Errorf("backend %s: %s differs from dcrt-native", backend, p.name)
			}
		}
		if len(got.rotMany) != len(want.rotMany) {
			t.Fatalf("backend %s: RotateRowsMany count", backend)
		}
		for i := range got.rotMany {
			if string(got.rotMany[i]) != string(want.rotMany[i]) {
				t.Errorf("backend %s: RotateRowsMany[%d] differs from dcrt-native", backend, i)
			}
		}
	}
}

func TestFacadeEvaluationOnlyContext(t *testing.T) {
	owner := toyCtx(t, 5, hebfv.WithRotations(1, 2), hebfv.WithColumnRotation())
	pub, err := owner.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	server, err := hebfv.New(
		hebfv.WithInsecureToyParameters(),
		hebfv.WithKeySet(pub),
		hebfv.WithSeed(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	if server.CanDecrypt() {
		t.Fatal("evaluation-only context claims it can decrypt")
	}
	ct, err := server.EncryptSlots([]uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := server.RotateRows(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Decrypt(rot); err == nil || !strings.Contains(err.Error(), "secret") {
		t.Fatalf("Decrypt on evaluation-only context: %v", err)
	}
	// A rotation whose key was not exported cannot be derived without the
	// secret key.
	if _, err := server.RotateRows(ct, 5); err == nil || !strings.Contains(err.Error(), "Galois") {
		t.Fatalf("unexported rotation step: %v", err)
	}
	// The owner decrypts the server's work: round-trip the ciphertext.
	blob, err := rot.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := owner.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptSlots(back)
	if err != nil {
		t.Fatal(err)
	}
	row := owner.RowSlots()
	if got[0] != 3 || got[1] != 4 || got[2] != 0 {
		t.Fatalf("rotated slots: %v (row=%d)", got[:4], row)
	}
}

// TestFacadeDeferredRotations pins the NTT-resident path: RotateRowsMany
// outputs (deferred on the native backend) must be bit-identical to
// serial RotateRows, and sums of deferred outputs must match
// coefficient-domain sums.
func TestFacadeDeferredRotations(t *testing.T) {
	ctx := toyCtx(t, 7)
	vals := make([]uint64, ctx.Slots())
	for i := range vals {
		vals[i] = uint64(5 * i)
	}
	ct, err := ctx.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 2, 3, 4}
	many, err := ctx.RotateRowsMany(ct, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		serial, err := ctx.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		if !many[i].Equal(serial) {
			t.Fatalf("deferred rotation k=%d differs from RotateRows", k)
		}
	}
	// NTT-domain fused sum vs coefficient-domain fold.
	many2, err := ctx.RotateRowsMany(ct, ks)
	if err != nil {
		t.Fatal(err)
	}
	fused := many2[0]
	for _, r := range many2[1:] {
		if fused, err = ctx.Add(fused, r); err != nil {
			t.Fatal(err)
		}
	}
	serialAcc, err := ctx.RotateRows(ct, ks[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks[1:] {
		r, err := ctx.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		if serialAcc, err = ctx.Add(serialAcc, r); err != nil {
			t.Fatal(err)
		}
	}
	if !fused.Equal(serialAcc) {
		t.Fatal("fused deferred sum differs from serial fold")
	}
}

// TestFacadeIdentityRotationSteps pins the k=0 (and k ≡ 0 mod RowSlots)
// behavior: identity steps pass through un-keyswitched in every rotation
// API, match RotateRows bit for bit, and need no Galois key — so an
// evaluation-only context handles them too.
func TestFacadeIdentityRotationSteps(t *testing.T) {
	owner := toyCtx(t, 30, hebfv.WithRotations(1, 2))
	ct, err := owner.EncryptSlots([]uint64{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	row := owner.RowSlots()
	ks := []int{0, 1, 2, row}
	many, err := owner.RotateRowsMany(ct, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		serial, err := owner.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		if !many[i].Equal(serial) {
			t.Fatalf("RotateRowsMany k=%d differs from RotateRows", k)
		}
	}
	// Rotate-and-sum with identity steps folds the input itself, exactly
	// like folding RotateRows outputs.
	sums, err := owner.RotateRowsAndSum([]*hebfv.Ciphertext{ct}, ks)
	if err != nil {
		t.Fatal(err)
	}
	want := ct
	for _, k := range ks {
		r, err := owner.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = owner.Add(want, r); err != nil {
			t.Fatal(err)
		}
	}
	if !sums[0].Equal(want) {
		t.Fatal("RotateRowsAndSum with identity steps differs from the RotateRows fold")
	}
	// All-identity step lists short-circuit entirely: no keys, no
	// hoisting, outputs are the inputs / repeated self-adds.
	onlyID, err := owner.RotateRowsMany(ct, []int{0, row})
	if err != nil {
		t.Fatal(err)
	}
	if !onlyID[0].Equal(ct) || !onlyID[1].Equal(ct) {
		t.Fatal("all-identity RotateRowsMany altered the ciphertext")
	}
	idSum, err := owner.RotateRowsAndSum([]*hebfv.Ciphertext{ct}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := owner.Add(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !idSum[0].Equal(doubled) {
		t.Fatal("all-identity RotateRowsAndSum differs from ct + ct")
	}

	// Identity outputs are fresh handles like every other result:
	// releasing them must leave the operand alive.
	id, err := owner.RotateRows(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	each, err := owner.RotateRowsEach([]*hebfv.Ciphertext{ct}, row)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*hebfv.Ciphertext{id, each[0], onlyID[0], onlyID[1]} {
		if err := h.Release(); err != nil {
			t.Fatalf("releasing an identity rotation output: %v", err)
		}
	}
	if got, err := owner.DecryptSlots(ct); err != nil || got[0] != 9 {
		t.Fatalf("operand dead after releasing its identity rotations: %v, %v", got, err)
	}

	// An evaluation-only context (keys for steps 1 and 2 only) handles the
	// same step list: identity steps need no key.
	pub, err := owner.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	server, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithKeySet(pub), hebfv.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	over, err := server.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.RotateRowsMany(over, ks); err != nil {
		t.Fatalf("evaluation-only RotateRowsMany with identity steps: %v", err)
	}
	if _, err := server.RotateRowsAndSum([]*hebfv.Ciphertext{over}, ks); err != nil {
		t.Fatalf("evaluation-only RotateRowsAndSum with identity steps: %v", err)
	}
}

func TestFacadeBatchedPipelines(t *testing.T) {
	ctx := toyCtx(t, 8)
	const batch = 3
	as := make([]*hebfv.Ciphertext, batch)
	bs := make([]*hebfv.Ciphertext, batch)
	for i := 0; i < batch; i++ {
		var err error
		if as[i], err = ctx.EncryptValue(uint64(i + 2)); err != nil {
			t.Fatal(err)
		}
		if bs[i], err = ctx.EncryptValue(uint64(i + 5)); err != nil {
			t.Fatal(err)
		}
	}
	sums, err := ctx.AddMany(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	prods, err := ctx.MulMany(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batch; i++ {
		if v, err := ctx.DecryptValue(sums[i]); err != nil || v != uint64(2*i+7) {
			t.Fatalf("AddMany[%d] = %d, %v", i, v, err)
		}
		if v, err := ctx.DecryptValue(prods[i]); err != nil || v != uint64((i+2)*(i+5)) {
			t.Fatalf("MulMany[%d] = %d, %v", i, v, err)
		}
	}
	total, err := ctx.Sum(as)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(total); err != nil || v != 2+3+4 {
		t.Fatalf("Sum = %d, %v", v, err)
	}
}

func TestFacadePIMBackendReportsKernels(t *testing.T) {
	ctx := toyCtx(t, 9, hebfv.WithBackend("pim"), hebfv.WithPIMDPUs(8))
	if _, _, ok := ctx.PIMReport(); !ok {
		t.Fatal("pim backend does not report kernels")
	}
	a, err := ctx.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValue(4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.DecryptValue(sum); err != nil || v != 7 {
		t.Fatalf("pim 3+4 = %d, %v", v, err)
	}
	launches, seconds, ok := ctx.PIMReport()
	if !ok || launches == 0 || seconds <= 0 {
		t.Fatalf("PIM report: launches=%d seconds=%g ok=%v", launches, seconds, ok)
	}
	// Unsupported operation errors name the backend.
	pt := ctx.EncodeValue(2)
	if _, err := ctx.MulPlain(a, pt); err == nil || !strings.Contains(err.Error(), "pim") {
		t.Fatalf("MulPlain on pim: %v", err)
	}
	// Host backends do not report kernels.
	host := toyCtx(t, 10)
	if _, _, ok := host.PIMReport(); ok {
		t.Fatal("host backend claims a PIM report")
	}
}

// TestFacadeConcurrentUse exercises the documented concurrency
// contract under -race: parallel encryptions (shared randomness
// source), lazy Galois-key derivation, deferred-rotation sums and
// forcing all run against one context.
func TestFacadeConcurrentUse(t *testing.T) {
	ctx := toyCtx(t, 40)
	base, err := ctx.EncryptSlots([]uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ct, err := ctx.EncryptValue(uint64(w))
			if err != nil {
				errs <- err
				return
			}
			if _, err := ctx.Add(ct, base); err != nil {
				errs <- err
				return
			}
			rots, err := ctx.RotateRowsMany(base, []int{w%3 + 1, w%5 + 1})
			if err != nil {
				errs <- err
				return
			}
			// Race deferred Add against forcing (decryption) of the same
			// handles.
			if _, err := ctx.Add(rots[0], rots[1]); err != nil {
				errs <- err
				return
			}
			for _, r := range rots {
				if _, err := ctx.DecryptSlots(r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFacadeRejectsMisuse(t *testing.T) {
	if _, err := hebfv.New(hebfv.WithBackend("no-such-backend")); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// "auto" is refused like any unknown name, and the error lists
	// exactly the backends there are.
	if _, err := hebfv.New(hebfv.WithBackend("auto")); err == nil {
		t.Fatal(`backend "auto" accepted`)
	} else if !strings.Contains(err.Error(), "(have [dcrt-native pim schoolbook])") {
		t.Fatalf(`backend "auto" refused with %q, want the list [dcrt-native pim schoolbook]`, err)
	}
	if _, err := hebfv.New(hebfv.WithSecurityLevel(64)); err == nil {
		t.Fatal("bad security level accepted")
	}
	if _, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithSecurityLevel(54)); err == nil {
		t.Fatal("toy + security level accepted")
	}
	// Cross-context handles are rejected.
	a := toyCtx(t, 11)
	b := toyCtx(t, 12)
	ctA, err := a.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := b.EncryptValue(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(ctA, ctB); err == nil {
		t.Fatal("cross-context Add accepted")
	}
	// Non-batching modulus: integer API works, slot API reports why not.
	nb, err := hebfv.New(
		hebfv.WithInsecureToyParameters(),
		hebfv.WithPlaintextModulus(16),
		hebfv.WithSeed(13),
	)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Slots() != 0 {
		t.Fatal("non-batching modulus reports slots")
	}
	ct, err := nb.EncryptValue(6)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := nb.DecryptValue(ct); err != nil || v != 6 {
		t.Fatalf("integer round trip under t=16: %d, %v", v, err)
	}
	if _, err := nb.RotateRows(ct, 1); err == nil || !strings.Contains(err.Error(), "batching") {
		t.Fatalf("RotateRows without batching: %v", err)
	}
	if _, err := hebfv.New(hebfv.WithInsecureToyParameters(), hebfv.WithPlaintextModulus(16), hebfv.WithRotations(1)); err == nil {
		t.Fatal("eager rotations without batching accepted")
	}
}

// TestFacadeDeferredProducts drives the NTT-resident multiplication
// pipeline through the facade: Mul chains, Square, MulMany + Sum fusion
// — each compared slot-for-slot and bit-for-bit against the schoolbook
// backend, which never defers.
func TestFacadeDeferredProducts(t *testing.T) {
	fast := toyCtx(t, 41)
	keys, err := fast.ExportKeys(true)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := hebfv.New(
		hebfv.WithInsecureToyParameters(),
		hebfv.WithBackend("schoolbook"),
		hebfv.WithKeySet(keys),
	)
	if err != nil {
		t.Fatal(err)
	}

	vals := make([]uint64, fast.Slots())
	for i := range vals {
		vals[i] = uint64(3*i + 1)
	}
	encBoth := func(v []uint64) (*hebfv.Ciphertext, *hebfv.Ciphertext) {
		t.Helper()
		ct, err := fast.EncryptSlots(v)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		ct2, err := slow.UnmarshalCiphertext(blob)
		if err != nil {
			t.Fatal(err)
		}
		return ct, ct2
	}
	a, aS := encBoth(vals)
	b, bS := encBoth(append([]uint64{7, 5}, vals[:len(vals)-2]...))

	equal := func(name string, f, s *hebfv.Ciphertext) {
		t.Helper()
		fb, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(fb) != string(sb) {
			t.Fatalf("%s: deferred facade result differs from schoolbook", name)
		}
	}

	// Chained Mul: the intermediate stays deferred between levels.
	p, err := fast.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := fast.Mul(p, b)
	if err != nil {
		t.Fatal(err)
	}
	pS, err := slow.Mul(aS, bS)
	if err != nil {
		t.Fatal(err)
	}
	p2S, err := slow.Mul(pS, bS)
	if err != nil {
		t.Fatal(err)
	}
	equal("mul chain", p2, p2S)

	// Square of a deferred product.
	sq, err := fast.Square(p)
	if err != nil {
		t.Fatal(err)
	}
	sqS, err := slow.Square(pS)
	if err != nil {
		t.Fatal(err)
	}
	equal("square", sq, sqS)

	// MulMany + Sum: the dot-product reduction fuses in the RNS domain.
	as := []*hebfv.Ciphertext{a, b, a}
	bs := []*hebfv.Ciphertext{b, b, a}
	asS := []*hebfv.Ciphertext{aS, bS, aS}
	bsS := []*hebfv.Ciphertext{bS, bS, aS}
	prods, err := fast.MulMany(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := fast.Sum(prods)
	if err != nil {
		t.Fatal(err)
	}
	prodsS, err := slow.MulMany(asS, bsS)
	if err != nil {
		t.Fatal(err)
	}
	dotS, err := slow.Sum(prodsS)
	if err != nil {
		t.Fatal(err)
	}
	equal("mulmany+sum", dot, dotS)

	// Mixed Add (deferred product + fresh ciphertext) falls back to the
	// coefficient domain, still bit-identical.
	mixed, err := fast.Add(prods[0], a)
	if err != nil {
		t.Fatal(err)
	}
	mixedS, err := slow.Add(prodsS[0], aS)
	if err != nil {
		t.Fatal(err)
	}
	equal("mixed add", mixed, mixedS)

	// Decryption of a deferred chain recovers the slotwise product.
	got, err := fast.DecryptSlots(p2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := slow.DecryptSlots(p2S)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}
