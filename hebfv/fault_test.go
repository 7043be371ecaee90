package hebfv

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bfv"
	"repro/internal/dcrt"
	"repro/internal/faultinject"
)

// Fault-tolerance tests: differential runs under injected DPU faults,
// backend failover, and the no-panic error contract of the public API.

// runWorkload drives one fixed slot-level workload and returns the
// decrypted result of each step. Both contexts in a differential pair
// must consume randomness identically, so the op sequence is fixed.
func runWorkload(t *testing.T, ctx *Context) [][]uint64 {
	t.Helper()
	a := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	b := []uint64{2, 7, 1, 8, 2, 8, 1, 8}
	ca, err := ctx.EncryptSlots(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := ctx.EncryptSlots(b)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ctx.Mul(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := ctx.RotateRows(sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := ctx.InnerSum(prod)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]uint64
	for _, ct := range []*Ciphertext{sum, prod, rot, inner} {
		slots, err := ctx.DecryptSlots(ct)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, slots)
	}
	return out
}

// TestFaultDifferentialPIMvsDCRTNative injects a 10% transient DPU
// fault rate (plus deaths and stragglers) into the pim backend and
// asserts its results stay bit-identical to dcrt-native, with the fault
// toll visible in the stats — the acceptance bar of the fault model.
func TestFaultDifferentialPIMvsDCRTNative(t *testing.T) {
	pimCtx, err := New(WithInsecureToyParameters(), WithSeed(42),
		WithBackend("pim"), WithPIMDPUs(8),
		WithPIMFaultInjection(7, 0.10, 0.01, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	hostCtx, err := New(WithInsecureToyParameters(), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}

	got := runWorkload(t, pimCtx)
	want := runWorkload(t, hostCtx)
	for step := range want {
		for i := range want[step] {
			if got[step][i] != want[step][i] {
				t.Fatalf("step %d slot %d: pim %d, dcrt-native %d", step, i, got[step][i], want[step][i])
			}
		}
	}

	ps, ok := pimCtx.PIMStats()
	if !ok {
		t.Fatal("pim context reports no fault stats")
	}
	if ps.TransientFaults == 0 || ps.Retries == 0 {
		t.Fatalf("10%% transient rate left no trace: %+v", ps)
	}
	if _, ok := hostCtx.PIMStats(); ok {
		t.Fatal("dcrt-native context claims fault stats")
	}
	if launches, _, ok := pimCtx.PIMReport(); !ok || launches == 0 {
		t.Fatalf("PIMReport broken under faults: launches=%d ok=%v", launches, ok)
	}
}

// TestFailoverToHostBackend kills every DPU and asserts the pim context
// degrades to the host engine with identical results and a recorded
// failover.
func TestFailoverToHostBackend(t *testing.T) {
	pimCtx, err := New(WithInsecureToyParameters(), WithSeed(11),
		WithBackend("pim"), WithPIMDPUs(4),
		WithPIMFaultInjection(1, 0, 1 /*every DPU dies*/, 0))
	if err != nil {
		t.Fatal(err)
	}
	hostCtx, err := New(WithInsecureToyParameters(), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}

	got := runWorkload(t, pimCtx)
	want := runWorkload(t, hostCtx)
	for step := range want {
		for i := range want[step] {
			if got[step][i] != want[step][i] {
				t.Fatalf("step %d slot %d: failed-over pim %d, host %d", step, i, got[step][i], want[step][i])
			}
		}
	}

	fs, ok := pimCtx.FailoverStats()
	if !ok || !fs.Engaged {
		t.Fatalf("failover not engaged: %+v (ok=%v)", fs, ok)
	}
	if fs.Primary != "pim" || fs.Fallback != DefaultBackend || fs.FailedOps == 0 || fs.Trigger == "" {
		t.Fatalf("failover stats incomplete: %+v", fs)
	}
	ps, _ := pimCtx.PIMStats()
	if ps.DeadDPUs == 0 {
		t.Fatalf("no DPU deaths recorded at rate 1: %+v", ps)
	}
	if fs2, ok := hostCtx.FailoverStats(); ok {
		t.Fatalf("host context claims a failover path: %+v", fs2)
	}
}

// TestFailoverMidSequenceChainsDeferred loses the DPUs progressively, so
// the pim context fails over partway through a multiplication chain,
// and checks the hand-over is seamless in both directions: results the
// PIM plane produced feed the host fallback, the fallback's products
// stay NTT-resident and chain into the next Mul, and every step is
// bit-identical to the schoolbook oracle.
func TestFailoverMidSequenceChainsDeferred(t *testing.T) {
	mk := func(opts ...Option) *Context {
		ctx, err := New(append([]Option{WithInsecureToyParameters(), WithSeed(23)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	// Injection is a pure function of (seed, site, launch), so this seed
	// and death rate always kill the last of the 4 DPUs a few steps in.
	pimCtx := mk(WithBackend("pim"), WithPIMDPUs(4), WithPIMFaultInjection(1, 0, 0.3, 0))
	oracle := mk(WithBackend("schoolbook"))

	chain := func(ctx *Context, step func(i int, x *Ciphertext)) {
		x, err := ctx.EncryptSlots([]uint64{2, 3, 5, 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctx.EncryptSlots([]uint64{1, 2, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if x, err = ctx.Mul(x, b); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			step(i, x)
		}
	}
	var want [][]byte
	chain(oracle, func(_ int, x *Ciphertext) {
		blob, err := x.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, blob)
	})

	// deferred reports whether a handle holds a deferred product.
	deferred := func(ct *Ciphertext) bool {
		_, ok := ct.pin().(*bfv.Deferred)
		ct.unpin()
		return ok
	}
	onPIM, chained := 0, 0
	var results []*Ciphertext
	chain(pimCtx, func(i int, x *Ciphertext) {
		fs, _ := pimCtx.FailoverStats()
		if !fs.Engaged {
			onPIM++
		} else if !deferred(x) {
			t.Fatalf("step %d: product after failover is not NTT-resident", i)
		} else if i > 0 {
			if deferred(results[i-1]) {
				chained++
			}
		}
		results = append(results, x)
	})
	if fs, _ := pimCtx.FailoverStats(); !fs.Engaged {
		t.Fatal("DPU loss never engaged the failover")
	}
	if onPIM == 0 || chained == 0 {
		t.Fatalf("failover not mid-sequence: %d steps on pim, %d deferred-to-deferred steps after it", onPIM, chained)
	}
	t.Logf("%d steps on pim, then %d deferred products chained on the host fallback", onPIM, chained)
	for i, x := range results {
		blob, err := x.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want[i]) {
			t.Fatalf("step %d differs from the schoolbook oracle", i)
		}
	}
}

// TestSemanticErrorsDoNotFailover: an unsupported operation on the pim
// backend must surface its own error, not silently degrade the backend.
func TestSemanticErrorsDoNotFailover(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(5), WithBackend("pim"), WithPIMDPUs(4))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptValue(9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctx.MulPlain(ct, ctx.EncodeValue(2))
	if err == nil || !strings.Contains(err.Error(), "does not implement MulPlain") {
		t.Fatalf("expected the pim MulPlain error, got %v", err)
	}
	if errors.Is(err, ErrBackendFailed) {
		t.Fatal("semantic error carries the fault-class sentinel")
	}
	if fs, _ := ctx.FailoverStats(); fs.Engaged {
		t.Fatalf("semantic error engaged failover: %+v", fs)
	}
}

// TestEvaluationOnlyContextTypedErrors: a context restored from
// ExportKeys(false) refuses secret-key operations with ErrNoSecretKey.
func TestEvaluationOnlyContextTypedErrors(t *testing.T) {
	owner, err := New(WithInsecureToyParameters(), WithSeed(3), WithRotations(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := owner.ExportKeys(false)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := New(WithInsecureToyParameters(), WithKeySet(blob))
	if err != nil {
		t.Fatal(err)
	}
	if eval.CanDecrypt() {
		t.Fatal("evaluation-only context claims decryption")
	}
	ct, err := eval.EncryptSlots([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.DecryptSlots(ct); !errors.Is(err, ErrNoSecretKey) {
		t.Fatalf("DecryptSlots: got %v, want ErrNoSecretKey", err)
	}
	if _, err := eval.Decrypt(ct); !errors.Is(err, ErrNoSecretKey) {
		t.Fatalf("Decrypt: got %v, want ErrNoSecretKey", err)
	}
	if _, err := eval.NoiseBudget(ct); !errors.Is(err, ErrNoSecretKey) {
		t.Fatalf("NoiseBudget: got %v, want ErrNoSecretKey", err)
	}
	if _, err := eval.ExportKeys(true); !errors.Is(err, ErrNoSecretKey) {
		t.Fatalf("ExportKeys(true): got %v, want ErrNoSecretKey", err)
	}
	// Rotation by a step with no cached key needs secret-key derivation.
	if _, err := eval.RotateRows(ct, 5); !errors.Is(err, ErrNoSecretKey) {
		t.Fatalf("RotateRows(uncached step): got %v, want ErrNoSecretKey", err)
	}
	// Cached steps still work.
	if _, err := eval.RotateRows(ct, 1); err != nil {
		t.Fatalf("RotateRows(cached step): %v", err)
	}
}

// TestHandleErrorsAreTyped audits the entry points reachable with
// user-controlled handles and shapes.
func TestHandleErrorsAreTyped(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(WithInsecureToyParameters(), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.EncryptValue(1)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ctx.Add(nil, ct); !errors.Is(err, ErrNilHandle) {
		t.Fatalf("Add(nil): got %v, want ErrNilHandle", err)
	}
	if _, err := ctx.Add(ct, foreign); !errors.Is(err, ErrForeignHandle) {
		t.Fatalf("Add(foreign): got %v, want ErrForeignHandle", err)
	}
	if _, err := ctx.MulPlain(ct, nil); !errors.Is(err, ErrNilHandle) {
		t.Fatalf("MulPlain(nil plaintext): got %v, want ErrNilHandle", err)
	}
	if _, err := ctx.AddPlain(ct, other.EncodeValue(1)); !errors.Is(err, ErrForeignHandle) {
		t.Fatalf("AddPlain(foreign plaintext): got %v, want ErrForeignHandle", err)
	}
	if _, err := ctx.EncodeSlots(make([]uint64, ctx.Slots()+1)); err == nil {
		t.Fatal("EncodeSlots accepted more values than slots")
	}
	// Extreme rotation steps must reduce, not panic or overflow.
	for _, k := range []int{-1 << 30, 1 << 30, 0} {
		if _, err := ctx.RotateRows(ct, k); err != nil {
			t.Fatalf("RotateRows(%d): %v", k, err)
		}
	}
	if _, err := ctx.UnmarshalCiphertext([]byte("not a blob")); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("UnmarshalCiphertext(garbage): got %v, want ErrCorruptBlob", err)
	}
	if _, err := ctx.Sum(nil); err == nil {
		t.Fatal("Sum(nil) accepted")
	}
	if _, err := ctx.MulMany([]*Ciphertext{ct}, nil); err == nil {
		t.Fatal("MulMany length mismatch accepted")
	}
}

// TestPoolPanicSurfacesAsBackendFailed arms the worker pool's panic
// injector and asserts an injected task panic crosses the public API as
// a typed ErrBackendFailed error — and that the pool (and a fresh
// context) works fine afterward.
func TestPoolPanicSurfacesAsBackendFailed(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	as := make([]*Ciphertext, 4)
	bs := make([]*Ciphertext, 4)
	for i := range as {
		if as[i], err = ctx.EncryptValue(uint64(i)); err != nil {
			t.Fatal(err)
		}
		if bs[i], err = ctx.EncryptValue(uint64(i * i)); err != nil {
			t.Fatal(err)
		}
	}

	dcrt.SetFaultInjector(faultinject.New(4).SetRate(dcrt.SitePoolPanic, 1))
	_, err = ctx.AddMany(as, bs)
	dcrt.SetFaultInjector(nil)
	if !errors.Is(err, ErrBackendFailed) {
		t.Fatalf("injected pool panic surfaced as %v, want ErrBackendFailed", err)
	}

	// Disarmed, a fresh context evaluates normally on the same pool.
	fresh, err := New(WithInsecureToyParameters(), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := fresh.EncryptValue(2)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := fresh.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fresh.AddMany([]*Ciphertext{ca}, []*Ciphertext{cb})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fresh.DecryptValue(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("post-recovery sum = %d, want 5", v)
	}
}
