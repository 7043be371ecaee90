package hebfv

import (
	"fmt"
	"sync"

	"repro/internal/bfv"
)

// Ciphertext is an opaque handle to an encrypted vector, bound to the
// Context that produced it. Handles are immutable: every operation
// returns a fresh one.
//
// A rotation or multiplication produced by a deferring backend
// (Context.RotateRowsMany, Mul/MulMany/Square) stays a bfv.Deferred —
// its base conversions deferred — until a consumer forces coefficients:
// decryption, serialization, Equal, or an operation with no deferred
// path. Add and Sum of deferred values fuse when every input lives in
// one domain (rotations in the NTT domain, products in the residue
// domain), and deferred products chain straight into further
// multiplications, all when exactness bounds allow. All of this is
// transparent: results are bit-identical either way.
//
// Every read of a handle — an engine call taking it as an operand,
// forcing, encoding, comparing — pins it for its duration, so a Release
// from another goroutine never frees memory under a reader (see
// Release).
type Ciphertext struct {
	ctx *Context

	mu       sync.Mutex
	val      bfv.Value // materialized or deferred form; nil once freed
	readers  int       // calls reading val right now
	released bool      // Release was called: dead, freed at readers == 0
}

// pin returns the handle's current form — deferred while nothing has
// forced it — and counts the caller as a reader until its unpin, or
// returns nil after Release.
func (ct *Ciphertext) pin() bfv.Value {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.released {
		return nil
	}
	ct.readers++
	return ct.val
}

// pinForced is pin for readers of coefficients: it materializes the
// handle first, which also returns a deferred form's accumulators to the
// scratch pool — steady-state batched rotation and multiplication stay
// allocation-free through the facade too. An engine still holding the
// deferred form keeps working: fused sums against it report false and
// fall back to the cached coefficients.
func (ct *Ciphertext) pinForced() *bfv.Ciphertext {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.released {
		return nil
	}
	raw := ct.val.Materialize()
	ct.val = raw
	ct.readers++
	return raw
}

// unpin ends a read begun by pin or pinForced, freeing the handle's
// memory if it was released meanwhile and this was the last reader.
func (ct *Ciphertext) unpin() {
	ct.mu.Lock()
	ct.readers--
	v := ct.takeIfDeadLocked()
	ct.mu.Unlock()
	if v != nil {
		v.Release()
	}
}

// takeIfDeadLocked detaches the form of a released handle nobody reads
// any more, for the caller to free outside the lock.
func (ct *Ciphertext) takeIfDeadLocked() bfv.Value {
	if !ct.released || ct.readers > 0 {
		return nil
	}
	v := ct.val
	ct.val = nil
	return v
}

// Release marks the handle dead and returns its memory: coefficient
// backings to the owning context's pool — a decoded handle's and every
// evaluation result of a host backend — and cached NTT forms and
// deferred accumulators to their scratch pools. Every subsequent use
// returns (or reports through) ErrReleasedHandle; Degree returns −1 and
// Equal false. Releasing twice is an error. A Release that arrives while
// another goroutine's call is reading the handle takes effect at once
// for new callers, and the memory goes back when the last reader
// finishes.
//
// Handles from Encrypt, the "pim" backend's results and identity-step
// rotations (copies) live on the heap: releasing them is harmless
// uniformity. Everything else should be released when done with — the
// serve package releases every handle a request made once the response
// is flushed. An unreleased handle stays valid and is reclaimed by the
// garbage collector; its pool just never recycles it.
func (ct *Ciphertext) Release() error {
	if ct == nil {
		return fmt.Errorf("%w: nil ciphertext", ErrNilHandle)
	}
	ct.mu.Lock()
	if ct.released {
		ct.mu.Unlock()
		return fmt.Errorf("%w: double release", ErrReleasedHandle)
	}
	ct.released = true
	v := ct.takeIfDeadLocked()
	ct.mu.Unlock()
	if v != nil {
		v.Release()
	}
	return nil
}

// components returns the handle's component (polynomial) count without
// forcing it: a deferred value, rotation or product, always
// materializes to the relinearized two-component form, so its size is
// known before any base conversion runs. Serialization size accounting
// (MarshaledBytes, the server's Content-Length hints) relies on this
// being exact for every form.
func (ct *Ciphertext) components() int {
	v := ct.pin()
	if v == nil {
		return 2
	}
	defer ct.unpin()
	if raw, ok := v.(*bfv.Ciphertext); ok {
		return len(raw.Polys)
	}
	return 2
}

// Degree returns the ciphertext degree (1 for fresh encryptions, 2 for
// unrelinearized products), or −1 for a released handle.
func (ct *Ciphertext) Degree() int {
	raw := ct.pinForced()
	if raw == nil {
		return -1
	}
	defer ct.unpin()
	return raw.Degree()
}

// Equal reports bitwise equality (forcing deferred forms first).
// Released handles compare equal to nothing, including each other.
func (ct *Ciphertext) Equal(o *Ciphertext) bool {
	if ct == nil || o == nil {
		return ct == o
	}
	a := ct.pinForced()
	if a == nil {
		return false
	}
	defer ct.unpin()
	b := o.pinForced()
	if b == nil {
		return false
	}
	defer o.unpin()
	return a.Equal(b)
}

// wrap binds an engine result to the context.
func (c *Context) wrap(v bfv.Value) *Ciphertext {
	return &Ciphertext{ctx: c, val: v}
}

// releaseValues returns the memory of engine results no handle wraps.
func releaseValues(vs []bfv.Value) {
	for _, v := range vs {
		v.Release()
	}
}

// wrapAll binds a batch of engine results to the context.
func (c *Context) wrapAll(vs []bfv.Value) []*Ciphertext {
	out := make([]*Ciphertext, len(vs))
	for i, v := range vs {
		out[i] = c.wrap(v)
	}
	return out
}

// check validates that ct is a handle of this context.
func (c *Context) check(ct *Ciphertext) error {
	if err := c.requireOpen(); err != nil {
		return err
	}
	if ct == nil {
		return fmt.Errorf("%w: nil ciphertext", ErrNilHandle)
	}
	if ct.ctx != c {
		return fmt.Errorf("%w: ciphertext from another context", ErrForeignHandle)
	}
	return nil
}

// operand validates that ct is a live handle of this context, pins it
// and returns its current form — deferred or materialized — for the
// engine. The caller unpins it when the engine call is done.
func (c *Context) operand(ct *Ciphertext) (bfv.Value, error) {
	if err := c.check(ct); err != nil {
		return nil, err
	}
	v := ct.pin()
	if v == nil {
		return nil, fmt.Errorf("%w: use after release", ErrReleasedHandle)
	}
	return v, nil
}

// operands is operand over a slice: every handle is pinned on success
// (the caller unpins them with unpinAll), none on error.
func (c *Context) operands(cts []*Ciphertext) ([]bfv.Value, error) {
	out := make([]bfv.Value, len(cts))
	for i, ct := range cts {
		v, err := c.operand(ct)
		if err != nil {
			unpinAll(cts[:i])
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// unpinAll unpins handles pinned by operands.
func unpinAll(cts []*Ciphertext) {
	for _, ct := range cts {
		ct.unpin()
	}
}

// own is operand for consumers of coefficients (decryption, noise
// measurement): it pins the handle forced.
func (c *Context) own(ct *Ciphertext) (*bfv.Ciphertext, error) {
	if err := c.check(ct); err != nil {
		return nil, err
	}
	raw := ct.pinForced()
	if raw == nil {
		return nil, fmt.Errorf("%w: use after release", ErrReleasedHandle)
	}
	return raw, nil
}

// newBFVPlaintext allocates an all-zero internal plaintext.
func newBFVPlaintext(c *Context) *bfv.Plaintext {
	return bfv.NewPlaintext(c.params)
}

// Plaintext is an opaque handle to an encoded (unencrypted) vector,
// bound to its Context.
type Plaintext struct {
	ctx *Context
	pt  *bfv.Plaintext
}

// ownPlain validates that pt belongs to this context.
func (c *Context) ownPlain(pt *Plaintext) (*bfv.Plaintext, error) {
	if err := c.requireOpen(); err != nil {
		return nil, err
	}
	if pt == nil {
		return nil, fmt.Errorf("%w: nil plaintext", ErrNilHandle)
	}
	if pt.ctx != c {
		return nil, fmt.Errorf("%w: plaintext from another context", ErrForeignHandle)
	}
	return pt.pt, nil
}
