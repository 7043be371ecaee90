package hebfv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

// Recycle-aware handle lifecycle and backing-pool tests: the zero-copy
// serving path's contract. Released handles must fail with
// ErrReleasedHandle (never panic, never compute on dead backings),
// pooled decodes must recycle bit-identically, and the steady-state
// decode->marshal->release loop must not re-allocate ciphertext
// backings once the pool is warm.

func TestReleaseErrors(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(60))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptSlots([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	other, err := ctx.EncryptSlots([]uint64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}

	var nilCT *Ciphertext
	if err := nilCT.Release(); !errors.Is(err, ErrNilHandle) {
		t.Fatalf("nil Release: got %v, want ErrNilHandle", err)
	}

	if err := ct.Release(); err != nil {
		t.Fatalf("first Release: %v", err)
	}
	if err := ct.Release(); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("double Release: got %v, want ErrReleasedHandle", err)
	}

	// Every error-bearing entry point reports ErrReleasedHandle, on
	// either operand side.
	if _, err := ctx.Add(ct, other); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Add(released, live): got %v", err)
	}
	if _, err := ctx.Add(other, ct); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Add(live, released): got %v", err)
	}
	if _, err := ctx.Mul(ct, other); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Mul(released, live): got %v", err)
	}
	if _, err := ctx.Square(ct); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Square(released): got %v", err)
	}
	if _, err := ctx.Decrypt(ct); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("Decrypt(released): got %v", err)
	}
	if err := ct.MarshalTo(io.Discard); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("MarshalTo(released): got %v", err)
	}
	if _, err := ct.MarshalBinary(); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("MarshalBinary(released): got %v", err)
	}
	if _, err := ctx.RotateRows(ct, 1); !errors.Is(err, ErrReleasedHandle) {
		t.Fatalf("RotateRows(released): got %v", err)
	}

	// The no-error accessors degrade instead of panicking.
	if d := ct.Degree(); d != -1 {
		t.Fatalf("Degree on released handle: %d, want -1", d)
	}
	if ct.Equal(other) || other.Equal(ct) {
		t.Fatal("Equal involving a released handle must be false")
	}
}

func TestPooledDecodeRecycle(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{7, 8, 9, 10}
	ct, err := ctx.EncryptSlots(want)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// First pooled decode: a miss (cold pool), bit-identical round trip.
	h1, err := ctx.ReadCiphertext(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	s := ctx.PoolStats()
	if s.Gets == 0 || s.Misses == 0 {
		t.Fatalf("cold decode did not draw from the pool: %+v", s)
	}
	re1, err := h1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re1, blob) {
		t.Fatal("pooled decode round trip is not bit-identical")
	}
	if err := h1.Release(); err != nil {
		t.Fatal(err)
	}
	if s = ctx.PoolStats(); s.InUse != 0 {
		t.Fatalf("pool leaks after release: %+v", s)
	}

	// Second decode of the same blob recycles the released backings and
	// still decrypts to the same slots.
	h2, err := ctx.ReadCiphertext(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if s = ctx.PoolStats(); s.Hits == 0 {
		t.Fatalf("warm decode did not hit the pool: %+v", s)
	}
	got, err := ctx.DecryptSlots(h2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("slot %d: %d, want %d (recycled backing corrupted the decode)", i, got[i], v)
		}
	}
	re2, err := h2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re2, blob) {
		t.Fatal("recycled decode round trip is not bit-identical")
	}
	if err := h2.Release(); err != nil {
		t.Fatal(err)
	}
	if s = ctx.PoolStats(); s.InUse != 0 || s.Gets != s.Puts {
		t.Fatalf("pool unbalanced at end: %+v", s)
	}
}

// servePathBytesPerOp measures heap growth per serve-shaped op
// (decode two request ciphertexts, Add, stream the response, release
// all three) against the given context, after a warmup that fills the
// pool to steady state.
func servePathBytesPerOp(t *testing.T, ctx *Context, blobA, blobB []byte, iters int) float64 {
	t.Helper()
	op := func() {
		a, err := ctx.ReadCiphertext(bytes.NewReader(blobA))
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctx.ReadCiphertext(bytes.NewReader(blobB))
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := out.MarshalTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Ciphertext{out, a, b} {
			if err := h.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ { // warm the pool and the chunk buffers
		op()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
}

// TestPooledDecodeBytesReduction: pooling must cut bytes allocated per
// serve op by at least 30% against an identical context with retention
// off (every Get misses, every Put drops). The pool backs both the
// decoded operands and the Add's output, so the delta is all the
// coefficient traffic of the op; the pooled arm keeps only small
// fixed-size structs.
func TestPooledDecodeBytesReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-growth bounds do not hold under the race detector")
	}
	pooled, err := New(WithSecurityLevel(27), WithSeed(62))
	if err != nil {
		t.Fatal(err)
	}
	unpooled, err := New(WithSecurityLevel(27), WithSeed(62), WithPoolRetention(0))
	if err != nil {
		t.Fatal(err)
	}
	a, err := pooled.EncryptSlots([]uint64{11, 22, 33})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pooled.EncryptSlots([]uint64{44, 55, 66})
	if err != nil {
		t.Fatal(err)
	}
	blobA, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const iters = 50
	on := servePathBytesPerOp(t, pooled, blobA, blobB, iters)
	off := servePathBytesPerOp(t, unpooled, blobA, blobB, iters)
	t.Logf("serve-path add: %.0f bytes/op pooled vs %.0f bytes/op retention-off (%.1f%% reduction)",
		on, off, (1-on/off)*100)
	if on > 0.7*off {
		t.Fatalf("pooled serve path allocates %.0f bytes/op vs %.0f unpooled; want >=30%% reduction", on, off)
	}
	if s := pooled.PoolStats(); s.InUse != 0 {
		t.Fatalf("pooled context leaks backings: %+v", s)
	}
}

// TestServeAllocsSteadyState pins the serialization half of the serve
// path — decode request, stream response, release — to near-zero heap
// growth per op once the pool is warm: no coefficient backing may be
// re-allocated, leaving only small fixed-size header/handle structs.
func TestServeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-growth bounds do not hold under the race detector")
	}
	ctx, err := New(WithSecurityLevel(27), WithSeed(63))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ctx.EncryptSlots([]uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	backingBytes := ctx.params.N * ctx.params.Q.W * 4 // one poly backing

	op := func() {
		h, err := ctx.ReadCiphertext(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.MarshalTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		op()
	}

	allocs := testing.AllocsPerRun(100, op)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const iters = 100
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	bytesPerOp := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)

	t.Logf("steady-state decode->marshal->release: %.1f allocs/op, %.0f bytes/op (backing is %d bytes)",
		allocs, bytesPerOp, backingBytes)
	// A single leaked backing re-allocation would add backingBytes per
	// op; the fixed header/handle structs stay well under half of one.
	if bytesPerOp >= float64(backingBytes)/2 {
		t.Fatalf("steady-state serve path allocates %.0f bytes/op; backings (%d bytes) are not being recycled",
			bytesPerOp, backingBytes)
	}
	// 10 allocs/op measured (handle, ciphertext and header structs; the
	// bfv record header is a fixed array, not a reflected slice); the
	// bound keeps a margin for toolchain drift.
	if allocs > 14 {
		t.Fatalf("steady-state serve path makes %.1f allocs/op; want at most 14", allocs)
	}
	if s := ctx.PoolStats(); s.InUse != 0 {
		t.Fatalf("pool leaks after steady-state loop: %+v", s)
	}
}

// TestPoolStressConcurrent hammers two tenant contexts from concurrent
// goroutines — decode, evaluate, marshal, release — and asserts the
// leak balance afterwards. Run under -race this is the pool's
// thread-safety proof across the whole facade lifecycle.
func TestPoolStressConcurrent(t *testing.T) {
	tenants := make([]*Context, 2)
	blobs := make([][][]byte, 2)
	for i := range tenants {
		ctx, err := New(WithInsecureToyParameters(), WithSeed(uint64(70+i)))
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = ctx
		for j := 0; j < 2; j++ {
			ct, err := ctx.EncryptSlots([]uint64{uint64(i + 1), uint64(j + 2)})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := ct.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			blobs[i] = append(blobs[i], blob)
		}
	}

	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := tenants[w%len(tenants)]
			pair := blobs[w%len(tenants)]
			for i := 0; i < iters; i++ {
				a, err := ctx.ReadCiphertext(bytes.NewReader(pair[0]))
				if err != nil {
					errc <- err
					return
				}
				b, err := ctx.ReadCiphertext(bytes.NewReader(pair[1]))
				if err != nil {
					errc <- err
					return
				}
				out, err := ctx.Add(a, b)
				if err != nil {
					errc <- err
					return
				}
				if err := out.MarshalTo(io.Discard); err != nil {
					errc <- err
					return
				}
				for _, h := range []*Ciphertext{out, a, b} {
					if err := h.Release(); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, ctx := range tenants {
		if s := ctx.PoolStats(); s.InUse != 0 || s.Gets != s.Puts+s.InUse {
			t.Fatalf("tenant %d pool unbalanced after stress: %+v", i, s)
		}
	}
}

// TestServedOpAllocs gates the heap growth of one served operation at
// the 109-bit preset — decode the operands, evaluate, stream the
// response, release every handle — for each served op, once the pools
// are warm. Operands, outputs, cached NTT forms and temporaries all
// recycle, so what is left is small fixed-size structs.
func TestServedOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-growth bounds do not hold under the race detector")
	}
	const maxBytes = 16 << 10
	ctx, err := New(WithSecurityLevel(109), WithSeed(64), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	blobs := make([][]byte, 2)
	for i := range blobs {
		ct, err := ctx.EncryptSlots([]uint64{uint64(i + 1), 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = ct.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	ops := []struct {
		name string
		eval func(a, b *Ciphertext) (*Ciphertext, error)
	}{
		{"add", ctx.Add},
		{"mul", ctx.Mul},
		{"rotate", func(a, _ *Ciphertext) (*Ciphertext, error) { return ctx.RotateRows(a, 1) }},
	}
	for _, op := range ops {
		served := func() {
			a, err := ctx.ReadCiphertext(bytes.NewReader(blobs[0]))
			if err != nil {
				t.Fatal(err)
			}
			b, err := ctx.ReadCiphertext(bytes.NewReader(blobs[1]))
			if err != nil {
				t.Fatal(err)
			}
			out, err := op.eval(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.MarshalTo(io.Discard); err != nil {
				t.Fatal(err)
			}
			for _, h := range []*Ciphertext{out, a, b} {
				if err := h.Release(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Collect before warming up, not after: a collection empties the
		// dcrt scratch pool (a sync.Pool) into its victim cache, whose
		// per-P private slots other Ps cannot take from.
		runtime.GC()
		for i := 0; i < 4; i++ {
			served()
		}
		const iters = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < iters; i++ {
			served()
		}
		runtime.ReadMemStats(&m1)
		perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / iters
		t.Logf("served %s: %.1f KB/op", op.name, perOp/1024)
		if perOp >= maxBytes {
			t.Errorf("served %s allocates %.1f KB/op, want < %d KB", op.name, perOp/1024, maxBytes>>10)
		}
	}
	if s := ctx.PoolStats(); s.InUse != 0 {
		t.Fatalf("pool leaks after the served ops: %+v", s)
	}
}

// TestEveryOpReturnsItsBackings runs every Context operation that
// returns ciphertexts, forces and releases each result, and audits the
// pool. The host backends draw every result from the pool, so Gets moves
// and InUse returns to zero — an intermediate an operation forgets to
// release (Sub's negation, InnerSum's rungs) stays in use. The "pim"
// backend's results live on the heap: its counters must not move. Each
// table runs twice, and every result must match, byte for byte, the
// same table on a retention-off context, whose backings always arrive
// zeroed: a kernel that relies on a clean destination reads a recycled
// one's garbage on the second pass.
func TestEveryOpReturnsItsBackings(t *testing.T) {
	for _, backend := range []string{"dcrt-native", "schoolbook", "pim"} {
		t.Run(backend, func(t *testing.T) {
			newCtx := func(opts ...Option) *Context {
				ctx, err := New(append([]Option{WithInsecureToyParameters(), WithSeed(65), WithBackend(backend)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return ctx
			}
			ref, ctx := newCtx(WithPoolRetention(0)), newCtx()
			want := everyOp(t, ref, backend, encryptSlots(t, ref, 1, 2, 3), encryptSlots(t, ref, 4, 5, 6))
			before := ctx.PoolStats()
			a, b := encryptSlots(t, ctx, 1, 2, 3), encryptSlots(t, ctx, 4, 5, 6)
			for pass := 0; pass < 2; pass++ {
				got := everyOp(t, ctx, backend, a, b)
				for name, blobs := range want {
					for i, blob := range blobs {
						if !bytes.Equal(got[name][i], blob) {
							t.Fatalf("pass %d: %s result %d differs from the retention-off context's", pass, name, i)
						}
					}
				}
			}
			for _, ct := range []*Ciphertext{a, b} {
				if err := ct.Release(); err != nil {
					t.Fatal(err)
				}
			}
			s := ctx.PoolStats()
			t.Logf("%+v", s)
			if backend == "pim" {
				if s != before {
					t.Fatalf("pim results moved the pool: %+v, was %+v", s, before)
				}
				return
			}
			if s.Gets == 0 || s.InUse != 0 {
				t.Fatalf("pool after releasing every result: %+v, want Gets > 0 and InUse == 0", s)
			}
		})
	}
}

func encryptSlots(t *testing.T, ctx *Context, vals ...uint64) *Ciphertext {
	t.Helper()
	ct, err := ctx.EncryptSlots(vals)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// everyOp runs the operation table on ctx over the operands a and b and
// returns each operation's marshaled results, having released every
// handle it made.
func everyOp(t *testing.T, ctx *Context, backend string, a, b *Ciphertext) map[string][][]byte {
	t.Helper()
	pt, err := ctx.EncodeSlots([]uint64{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	one := func(ct *Ciphertext, err error) ([]*Ciphertext, error) { return []*Ciphertext{ct}, err }
	// fold applies a two-operand op to the results of a batch op (a
	// deferred pipeline: fused sums, chained products), releasing them.
	fold := func(cts []*Ciphertext, err error) func(func(x, y *Ciphertext) (*Ciphertext, error)) ([]*Ciphertext, error) {
		return func(op func(x, y *Ciphertext) (*Ciphertext, error)) ([]*Ciphertext, error) {
			if err != nil {
				return nil, err
			}
			defer func() {
				for _, ct := range cts {
					ct.Release()
				}
			}()
			return one(op(cts[0], cts[1]))
		}
	}
	ops := []struct {
		name string
		run  func() ([]*Ciphertext, error)
	}{
		{"Add", func() ([]*Ciphertext, error) { return one(ctx.Add(a, b)) }},
		{"Sub", func() ([]*Ciphertext, error) { return one(ctx.Sub(a, b)) }},
		{"Mul", func() ([]*Ciphertext, error) { return one(ctx.Mul(a, b)) }},
		{"Square", func() ([]*Ciphertext, error) { return one(ctx.Square(a)) }},
		{"Neg", func() ([]*Ciphertext, error) { return one(ctx.Neg(a)) }},
		{"AddPlain", func() ([]*Ciphertext, error) { return one(ctx.AddPlain(a, pt)) }},
		{"MulPlain", func() ([]*Ciphertext, error) { return one(ctx.MulPlain(a, pt)) }},
		{"Sum", func() ([]*Ciphertext, error) { return one(ctx.Sum([]*Ciphertext{a, b, a})) }},
		{"AddMany", func() ([]*Ciphertext, error) { return ctx.AddMany([]*Ciphertext{a, b}, []*Ciphertext{b, b}) }},
		{"MulMany", func() ([]*Ciphertext, error) { return ctx.MulMany([]*Ciphertext{a, b}, []*Ciphertext{b, b}) }},
		{"RotateRows", func() ([]*Ciphertext, error) { return one(ctx.RotateRows(a, 1)) }},
		{"RotateColumns", func() ([]*Ciphertext, error) { return one(ctx.RotateColumns(a)) }},
		{"InnerSum", func() ([]*Ciphertext, error) { return one(ctx.InnerSum(a)) }},
		{"RotateRowsMany", func() ([]*Ciphertext, error) { return ctx.RotateRowsMany(a, []int{1, 0, 2}) }},
		{"RotateRowsAndSum", func() ([]*Ciphertext, error) { return ctx.RotateRowsAndSum([]*Ciphertext{a, b}, []int{0, 1, 2, 0}) }},
		{"RotateRowsAndSum/identity", func() ([]*Ciphertext, error) { return ctx.RotateRowsAndSum([]*Ciphertext{a}, []int{0, 0}) }},
		{"RotateRowsEach", func() ([]*Ciphertext, error) { return ctx.RotateRowsEach([]*Ciphertext{a, b}, 3) }},
		{"Add(RotateRowsMany)", func() ([]*Ciphertext, error) { return fold(ctx.RotateRowsMany(a, []int{1, 2}))(ctx.Add) }},
		{"Sum(MulMany)", func() ([]*Ciphertext, error) {
			return fold(ctx.MulMany([]*Ciphertext{a, b}, []*Ciphertext{b, a}))(func(x, y *Ciphertext) (*Ciphertext, error) {
				return ctx.Sum([]*Ciphertext{x, y})
			})
		}},
		{"Mul(MulMany)", func() ([]*Ciphertext, error) {
			return fold(ctx.MulMany([]*Ciphertext{a, b}, []*Ciphertext{b, a}))(ctx.Mul)
		}},
	}
	out := map[string][][]byte{}
	for _, op := range ops {
		cts, err := op.run()
		if backend == "pim" && op.name == "MulPlain" {
			continue // the pim backend has no MulPlain
		}
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		for _, ct := range cts {
			blob, err := ct.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			out[op.name] = append(out[op.name], blob)
			if err := ct.Release(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		}
	}
	return out
}

// TestReleaseDuringReads releases a handle while other goroutines run
// Mul, Add and RotateRows on it. A call that pinned the handle before the
// Release must finish on intact memory — its result bit-identical to the
// reference — and any later call must report ErrReleasedHandle; the
// memory goes back once, after the last reader. Both a decoded handle and
// a deferred product (whose accumulators the product's own operand count
// guards one layer down) are raced. Run it under -race.
func TestReleaseDuringReads(t *testing.T) {
	ctx, err := New(WithInsecureToyParameters(), WithSeed(66), WithRotations(1))
	if err != nil {
		t.Fatal(err)
	}
	x := encryptSlots(t, ctx, 1, 2, 3)
	y := encryptSlots(t, ctx, 4, 5, 6)
	blob, err := x.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ops := []func(h *Ciphertext) (*Ciphertext, error){
		func(h *Ciphertext) (*Ciphertext, error) { return ctx.Mul(h, y) },
		func(h *Ciphertext) (*Ciphertext, error) { return ctx.Add(h, y) },
		func(h *Ciphertext) (*Ciphertext, error) { return ctx.RotateRows(h, 1) },
	}
	kinds := []struct {
		name string
		make func() *Ciphertext
	}{
		{"decoded", func() *Ciphertext {
			h, err := ctx.UnmarshalCiphertext(blob)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
		{"product", func() *Ciphertext {
			h, err := ctx.Mul(x, y)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
	}
	for _, kind := range kinds {
		ref := kind.make()
		want := make([][]byte, len(ops))
		for i, op := range ops {
			out, err := op(ref)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = out.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
			out.Release()
		}
		ref.Release()

		for round := 0; round < 20; round++ {
			h := kind.make()
			start := make(chan struct{})
			errc := make(chan error, 3*len(ops)+1)
			var wg sync.WaitGroup
			for i, op := range ops {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for rep := 0; rep < 3; rep++ {
						out, err := op(h)
						if errors.Is(err, ErrReleasedHandle) {
							return
						}
						if err != nil {
							errc <- err
							return
						}
						got, err := out.MarshalBinary()
						out.Release()
						if err != nil {
							errc <- err
							return
						}
						if !bytes.Equal(got, want[i]) {
							errc <- fmt.Errorf("%s round %d: op %d read a recycled operand", kind.name, round, i)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if round%2 == 1 {
					runtime.Gosched()
				}
				if err := h.Release(); err != nil {
					errc <- err
				}
			}()
			close(start)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		}
	}
	x.Release()
	y.Release()
	if s := ctx.PoolStats(); s.InUse != 0 {
		t.Fatalf("pool after the races: %+v, want InUse == 0", s)
	}
}
