package hebfv

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bfv"
	"repro/internal/pim"
)

// Backend failover: graceful degradation for modeled-hardware backends.
// A Context on the "pim" backend wraps its engine in a failoverEngine
// whose fallback is the dcrt-native host engine. When the primary fails
// with a *fault-class* error — a DPU fault past the retry budget, no
// live DPUs left, or a panic converted by the guard — the wrapper
// constructs the fallback, replays the failed operation on it, and
// routes every subsequent operation there. Results are bit-identical by
// the backend contract, so callers observe nothing but the stats.
//
// Semantic errors (unsupported operation, shape mismatch, foreign
// handles) never trigger failover: they would fail identically — or
// mask a real bug — on the fallback.

// FailoverStats describes a context's backend-failover state (see
// Context.FailoverStats).
type FailoverStats struct {
	Engaged   bool   // the fallback engine has taken over
	Primary   string // backend name of the original engine
	Fallback  string // backend name of the fallback engine
	FailedOps int    // operations that hit a fault-class error on the primary
	Trigger   string // error message that first engaged the fallback
}

// failoverEngine decorates a primary Engine with a lazily constructed
// fallback. Values carry their own deferral, so a fallback host engine's
// NTT-resident fast paths light up after failing over with no extra
// plumbing here.
type failoverEngine struct {
	primary     Engine
	makeFB      func() (Engine, error)
	primaryName string
	fbName      string

	mu      sync.Mutex
	fb      Engine // non-nil once engaged
	trigger error
	failed  int
}

func newFailoverEngine(primary Engine, primaryName, fbName string, makeFB func() (Engine, error)) *failoverEngine {
	return &failoverEngine{primary: primary, makeFB: makeFB, primaryName: primaryName, fbName: fbName}
}

// current returns the engine operations run on right now.
func (e *failoverEngine) current() Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fb != nil {
		return e.fb
	}
	return e.primary
}

// engage switches to the fallback (constructing it on first use) and
// records the trigger. Safe to call concurrently.
func (e *failoverEngine) engage(cause error) (Engine, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failed++
	if e.fb == nil {
		fb, err := e.makeFB()
		if err != nil {
			return nil, err
		}
		e.fb = fb
		e.trigger = cause
	}
	return e.fb, nil
}

// faultClass reports whether err warrants failing over: hardware-model
// faults and converted panics do, semantic errors do not.
func faultClass(err error) bool {
	return pim.IsFault(err) || errors.Is(err, ErrBackendFailed)
}

// fo runs op on the current engine, converting panics to errors. A
// fault-class failure on the primary engages the fallback and replays
// the operation there once.
func fo[T any](e *failoverEngine, op func(Engine) (T, error)) (T, error) {
	eng := e.current()
	out, err := safeOp(eng, op)
	if err == nil || !faultClass(err) || eng != e.primary {
		return out, err
	}
	fb, ferr := e.engage(err)
	if ferr != nil {
		var zero T
		return zero, fmt.Errorf("%w (and constructing the %q fallback failed: %v)", err, e.fbName, ferr)
	}
	return safeOp(fb, op)
}

// safeOp runs op with the engine, converting a panic into a typed
// fault-class error so it both propagates cleanly and triggers
// failover.
func safeOp[T any](eng Engine, op func(Engine) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	return op(eng)
}

func (e *failoverEngine) Add(as, bs []bfv.Value) ([]bfv.Value, error) {
	return fo(e, func(g Engine) ([]bfv.Value, error) { return g.Add(as, bs) })
}

func (e *failoverEngine) Mul(as, bs []bfv.Value) ([]bfv.Value, error) {
	return fo(e, func(g Engine) ([]bfv.Value, error) { return g.Mul(as, bs) })
}

func (e *failoverEngine) Neg(a bfv.Value) (bfv.Value, error) {
	return fo(e, func(g Engine) (bfv.Value, error) { return g.Neg(a) })
}

func (e *failoverEngine) AddPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return fo(e, func(g Engine) (bfv.Value, error) { return g.AddPlain(a, pt) })
}

func (e *failoverEngine) MulPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return fo(e, func(g Engine) (bfv.Value, error) { return g.MulPlain(a, pt) })
}

func (e *failoverEngine) Sum(cts []bfv.Value) (bfv.Value, error) {
	return fo(e, func(g Engine) (bfv.Value, error) { return g.Sum(cts) })
}

func (e *failoverEngine) Rotate(cts []bfv.Value, gks []*bfv.GaloisKey) ([][]bfv.Value, error) {
	return fo(e, func(g Engine) ([][]bfv.Value, error) { return g.Rotate(cts, gks) })
}

func (e *failoverEngine) RotateAndSum(cts []bfv.Value, gks []*bfv.GaloisKey) ([]bfv.Value, error) {
	return fo(e, func(g Engine) ([]bfv.Value, error) { return g.RotateAndSum(cts, gks) })
}

// Report is the primary's report — modeled-hardware accounting belongs
// to the modeled hardware even after its retirement — plus the failover
// state.
func (e *failoverEngine) Report() Report {
	rep := e.primary.Report()
	e.mu.Lock()
	defer e.mu.Unlock()
	rep.Failover = &FailoverStats{
		Engaged:   e.fb != nil,
		Primary:   e.primaryName,
		Fallback:  e.fbName,
		FailedOps: e.failed,
	}
	if e.trigger != nil {
		rep.Failover.Trigger = e.trigger.Error()
	}
	return rep
}
