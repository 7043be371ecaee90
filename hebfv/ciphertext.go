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
// (Context.RotateRowsMany, Mul/MulMany/Square) stays in RNS-resident
// form — its base conversions deferred — until a consumer forces
// coefficients: decryption, serialization, Equal, or an operation with
// no deferred path. Sums of deferred rotations fuse in the NTT domain,
// sums of deferred products fuse in the residue domain, and deferred
// products chain straight into further multiplications, all when
// exactness bounds allow. All of this is transparent: results are
// bit-identical either way.
type Ciphertext struct {
	ctx *Context

	mu     sync.Mutex
	val    bfv.Value // materialized or deferred form; nil once released
	pooled bool      // coefficient backings came from the context pool
}

// value returns the handle's current form for the engine — deferred
// while nothing has forced it — or nil after Release.
func (ct *Ciphertext) value() bfv.Value {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.val
}

// force materializes the handle's coefficient form, which also returns
// a deferred form's accumulators to the scratch pool — steady-state
// batched rotation and multiplication stay allocation-free through the
// facade too. An engine still holding the deferred form keeps working:
// fused sums against it report false and fall back to the cached
// coefficients. After Release the handle holds no form at all and force
// returns nil; error-bearing entry points map that to ErrReleasedHandle
// via own.
func (ct *Ciphertext) force() *bfv.Ciphertext {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.val == nil {
		return nil
	}
	raw := ct.val.Materialize()
	ct.val = raw
	return raw
}

// Release returns the handle's resources — pooled coefficient backings
// to the owning context's pool, deferred accumulators to their scratch
// pools — and marks the handle dead. Every subsequent use returns (or
// reports through) ErrReleasedHandle; Degree returns −1 and Equal
// false. Releasing twice is an error.
//
// Release is only required for handles produced by Context.
// ReadCiphertext on the serving path, where recycling the decode
// backings is the point (the serve package calls it automatically once
// the response is flushed). Handles from Encrypt or evaluation results
// may be released for uniformity but recycle nothing beyond deferred
// scratch: their backings were never drawn from the pool.
func (ct *Ciphertext) Release() error {
	if ct == nil {
		return fmt.Errorf("%w: nil ciphertext", ErrNilHandle)
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.val == nil {
		return fmt.Errorf("%w: double release", ErrReleasedHandle)
	}
	ct.val.Release()
	if raw, ok := ct.val.(*bfv.Ciphertext); ok && ct.pooled && ct.ctx != nil && ct.ctx.pool != nil {
		for _, p := range raw.Polys {
			ct.ctx.pool.Put(p.C)
		}
	}
	ct.val = nil
	return nil
}

// components returns the handle's component (polynomial) count without
// forcing it: deferred rotation and multiplication outputs both
// materialize to the relinearized two-component form, so their size is
// known before any base conversion runs. Serialization size accounting
// (MarshaledBytes, the server's Content-Length hints) relies on this
// being exact for every form.
func (ct *Ciphertext) components() int {
	if raw, ok := ct.value().(*bfv.Ciphertext); ok {
		return len(raw.Polys)
	}
	return 2
}

// Degree returns the ciphertext degree (1 for fresh encryptions, 2 for
// unrelinearized products), or −1 for a released handle.
func (ct *Ciphertext) Degree() int {
	raw := ct.force()
	if raw == nil {
		return -1
	}
	return raw.Degree()
}

// Equal reports bitwise equality (forcing deferred forms first).
// Released handles compare equal to nothing, including each other.
func (ct *Ciphertext) Equal(o *Ciphertext) bool {
	if ct == nil || o == nil {
		return ct == o
	}
	a, b := ct.force(), o.force()
	if a == nil || b == nil {
		return false
	}
	return a.Equal(b)
}

// wrap binds an engine result to the context.
func (c *Context) wrap(v bfv.Value) *Ciphertext {
	return &Ciphertext{ctx: c, val: v}
}

// wrapAll binds a batch of engine results to the context.
func (c *Context) wrapAll(vs []bfv.Value) []*Ciphertext {
	out := make([]*Ciphertext, len(vs))
	for i, v := range vs {
		out[i] = c.wrap(v)
	}
	return out
}

// operand validates that ct is a live handle of this context and
// returns its current form — deferred or materialized — for the engine.
func (c *Context) operand(ct *Ciphertext) (bfv.Value, error) {
	if err := c.requireOpen(); err != nil {
		return nil, err
	}
	if ct == nil {
		return nil, fmt.Errorf("%w: nil ciphertext", ErrNilHandle)
	}
	if ct.ctx != c {
		return nil, fmt.Errorf("%w: ciphertext from another context", ErrForeignHandle)
	}
	v := ct.value()
	if v == nil {
		return nil, fmt.Errorf("%w: use after release", ErrReleasedHandle)
	}
	return v, nil
}

// operands validates a slice of handles.
func (c *Context) operands(cts []*Ciphertext) ([]bfv.Value, error) {
	out := make([]bfv.Value, len(cts))
	for i, ct := range cts {
		v, err := c.operand(ct)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// own is operand for consumers of coefficients (decryption, noise
// measurement): it forces the handle.
func (c *Context) own(ct *Ciphertext) (*bfv.Ciphertext, error) {
	if _, err := c.operand(ct); err != nil {
		return nil, err
	}
	raw := ct.force()
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
