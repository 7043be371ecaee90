package hebfv

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bfv"
	"repro/internal/faultinject"
	"repro/internal/hepim"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// Evaluation backends. Every facade call routes through one Engine,
// selected by name through one constructor (New(WithBackend(name)) for
// contexts, NewEngine for lower-level harnesses like the benchmark
// suite). Three backends are built in:
//
//   - "dcrt-native": the double-CRT (RNS + NTT) backend with RNS-native
//     rescaling, NTT-resident values, and hoisted rotations — the
//     default and the fast path.
//   - "schoolbook": bfv.Oracle, the math/big Kronecker-product evaluator
//     — the correctness oracle; every backend is bit-identical to it.
//   - "pim": the simulated UPMEM PIM server (internal/hepim) — every
//     kernel runs on the cycle-level simulator as a shard plan of the
//     one execution plane (internal/pimsched) and the engine reports
//     its running total: modeled kernel time and the sharded
//     cycle/transfer/energy breakdown (see Context.PIMReport and
//     Context.PIMBreakdown).
//
// The contract has three rules. Batches are the primitive: Add, Mul and
// Rotate take slices, and a single operation is a length-1 batch (an
// engine may observe the length — the host short-cuts singletons).
// Deferral is a property of the value: engines take and return
// bfv.Value, the host engine returns NTT-resident values and fuses sums
// of them where exactness bounds allow, and an engine that cannot use a
// deferred input calls Materialize on it — so the failover decorator
// forwards one method family and gains deferral for free. Reporting is
// one method: Report returns every section the engine has.
//
// Engine names internal types, so it is implementable only inside this
// repository; external consumers select backends by name.

// Engine is the evaluation capability a backend provides. All results
// must materialize bit-identically to the schoolbook oracle's; outputs
// never alias inputs; engines that do not support an operation return
// an error naming the backend.
type Engine interface {
	// Add and Mul return the element-wise sums as[i] + bs[i] and
	// relinearized products as[i]·bs[i].
	Add(as, bs []bfv.Value) ([]bfv.Value, error)
	Mul(as, bs []bfv.Value) ([]bfv.Value, error)
	Neg(a bfv.Value) (bfv.Value, error)
	AddPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error)
	MulPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error)
	// Sum returns the total of cts. Addition of canonical residues mod q
	// is order-independent, so any evaluation order and any lazy
	// reduction give the same bits.
	Sum(cts []bfv.Value) (bfv.Value, error)
	// Rotate returns out[i][j] = τ_{gks[j]}(cts[i]).
	Rotate(cts []bfv.Value, gks []*bfv.GaloisKey) ([][]bfv.Value, error)
	// RotateAndSum returns cts[i] + Σ_j τ_{gks[j]}(cts[i]), folded in
	// key order.
	RotateAndSum(cts []bfv.Value, gks []*bfv.GaloisKey) ([]bfv.Value, error)
	Report() Report
}

// Report is everything an engine can say about itself; a nil section
// means the engine has no such part (host engines report nothing).
type Report struct {
	PIM      *PIMPlaneReport // modeled hardware: "pim"
	Failover *FailoverStats  // host failover state: contexts on "pim"
}

// PIMPlaneReport is the accumulated accounting of the simulated PIM
// plane: one running pimsched.Report total over every kernel run (its
// KernelSeconds is the summed modeled kernel time), how many runs it
// holds, and the system's fault counters.
type PIMPlaneReport struct {
	Launches  int              // kernel runs (scheduler plans) issued
	Faults    pim.FaultStats   // injected faults, retries, re-dispatches
	Breakdown *pimsched.Report // sharded cycle/transfer/energy totals
}

// Config carries everything a backend needs to construct its engine.
type Config struct {
	Params *bfv.Parameters
	Relin  *bfv.RelinKey // may be nil when Mul is not used

	// PIMDPUs overrides the simulated DPU count for the "pim" backend
	// (0 = the paper machine's 2,524). Other backends ignore it.
	PIMDPUs int

	// PIMRanks/PIMDPUsPerRank pin the rank×DPU topology of the
	// execution plane (both zero = the largest whole-rank topology that
	// fits the DPU count). When set without PIMDPUs, the simulated
	// system is sized to the topology.
	PIMRanks       int
	PIMDPUsPerRank int

	// PIMFaultSeed/PIMFaultRates arm the "pim" backend's deterministic
	// fault injector: rates maps injection sites (pim.SiteDPUTransient,
	// pim.SiteDPUDead, pim.SiteDPUStraggler) to per-launch-per-DPU
	// probabilities. A nil/empty map leaves injection disabled. Other
	// backends ignore both.
	PIMFaultSeed  uint64
	PIMFaultRates map[string]float64

	// pool backs the results of the host backends (the Alloc of
	// bfv.Evaluator and bfv.Oracle): a Context passes its own, so Release
	// recycles them. Unset, results live on the heap.
	pool bfv.BackingAllocator
}

// DefaultBackend is the backend a Context uses when WithBackend is not
// given.
const DefaultBackend = "dcrt-native"

// Backends returns the backend names, sorted.
func Backends() []string {
	return []string{"dcrt-native", "pim", "schoolbook"}
}

// NewEngine constructs the named backend's engine — the one constructor
// every consumer (contexts, the benchmark harness, a served front end)
// selects backends through.
func NewEngine(name string, cfg Config) (Engine, error) {
	if cfg.Params == nil {
		return nil, errors.New("hebfv: NewEngine requires parameters")
	}
	switch name {
	case "dcrt-native":
		ev := bfv.NewEvaluator(cfg.Params, cfg.Relin)
		ev.Alloc = cfg.pool
		return &evalEngine{ev: ev, be: bfv.NewBatchEvaluatorFrom(ev)}, nil
	case "schoolbook":
		o := bfv.NewOracle(cfg.Params, cfg.Relin)
		o.Alloc = cfg.pool
		return &serialEngine{srv: o, report: func() Report { return Report{} }}, nil
	case "pim":
		return newPIMEngine(cfg)
	default:
		return nil, fmt.Errorf("hebfv: unknown backend %q (have %v)", name, Backends())
	}
}

// newPIMEngine builds the "pim" backend's simulated PIM server engine.
// The topology is explicit when the config pins one, otherwise the
// largest whole-rank shape fitting the DPU count; an explicit topology
// without an explicit DPU count sizes the system to the topology.
func newPIMEngine(cfg Config) (*serialEngine, error) {
	sys := pim.DefaultConfig()
	if cfg.PIMDPUs > 0 {
		sys.NumDPUs = cfg.PIMDPUs
	}
	topo := pimsched.FitTopology(sys.NumDPUs)
	if cfg.PIMRanks > 0 && cfg.PIMDPUsPerRank > 0 {
		topo = pimsched.Topology{Ranks: cfg.PIMRanks, DPUsPerRank: cfg.PIMDPUsPerRank}
		if cfg.PIMDPUs == 0 {
			sys.NumDPUs = topo.NumDPUs()
		}
	}
	srv, err := hepim.NewServerWithTopology(sys, cfg.Params, cfg.Relin, topo, true)
	if err != nil {
		return nil, err
	}
	if len(cfg.PIMFaultRates) > 0 {
		in := faultinject.New(cfg.PIMFaultSeed)
		for site, p := range cfg.PIMFaultRates {
			in.SetRate(site, p)
		}
		srv.Sys.SetFaultInjector(in)
	}
	return &serialEngine{srv: srv, report: func() Report {
		return Report{PIM: &PIMPlaneReport{
			Launches:  srv.Runs(),
			Faults:    srv.Sys.FaultStats(),
			Breakdown: srv.Breakdown(),
		}}
	}}, nil
}

// values widens a slice of one concrete value form to []bfv.Value.
func values[T bfv.Value](in []T) []bfv.Value {
	out := make([]bfv.Value, len(in))
	for i, v := range in {
		out[i] = v
	}
	return out
}

// materialize forces every value to its coefficient form.
func materialize(vs []bfv.Value) []*bfv.Ciphertext {
	out := make([]*bfv.Ciphertext, len(vs))
	for i, v := range vs {
		out[i] = v.Materialize()
	}
	return out
}

// evalEngine adapts the double-CRT bfv.Evaluator plus its batched front
// end to the Engine contract.
type evalEngine struct {
	ev *bfv.Evaluator
	be *bfv.BatchEvaluator
}

// Add fuses a singleton sum of two deferred values in their resident
// domain; batches run materialized on the worker pool.
func (e *evalEngine) Add(as, bs []bfv.Value) ([]bfv.Value, error) {
	if len(as) == 1 && len(bs) == 1 {
		return []bfv.Value{e.add(as[0], bs[0])}, nil
	}
	out, err := e.be.AddMany(materialize(as), materialize(bs))
	if err != nil {
		return nil, err
	}
	return values(out), nil
}

// add sums two values, staying deferred when both are deferred values
// of one domain (two rotations, or two products) and the exactness
// bound allows; otherwise it adds coefficients.
func (e *evalEngine) add(a, b bfv.Value) bfv.Value {
	x, okA := a.(*bfv.Deferred)
	y, okB := b.(*bfv.Deferred)
	if okA && okB {
		if sum, ok := x.Add(y); ok {
			return sum
		}
	}
	return e.ev.Add(a.Materialize(), b.Materialize())
}

// Mul returns NTT-resident products: they chain into further Mul calls
// and fuse under Sum/Add without intermediate base conversions.
func (e *evalEngine) Mul(as, bs []bfv.Value) ([]bfv.Value, error) {
	if len(as) == 1 && len(bs) == 1 {
		p, err := e.ev.MulNTT(as[0], bs[0])
		if err != nil {
			return nil, err
		}
		return []bfv.Value{p}, nil
	}
	prods, err := e.be.MulManyNTT(as, bs)
	if err != nil {
		return nil, err
	}
	return values(prods), nil
}

func (e *evalEngine) Neg(a bfv.Value) (bfv.Value, error) {
	return e.ev.Neg(a.Materialize()), nil
}

func (e *evalEngine) AddPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return e.ev.AddPlain(a.Materialize(), pt), nil
}

func (e *evalEngine) MulPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return e.ev.MulPlain(a.Materialize(), pt), nil
}

// Sum folds all-deferred inputs (a Mul-then-Sum dot product, a
// Rotate-then-Sum aggregate) in their resident domain — the whole
// reduction pays one base-conversion pair — and everything else in
// coefficients, into one output ciphertext.
func (e *evalEngine) Sum(cts []bfv.Value) (bfv.Value, error) {
	if len(cts) == 0 {
		return nil, errors.New("hebfv: empty sum")
	}
	if sum, ok := sumDeferred(cts); ok {
		return sum, nil
	}
	return e.ev.Sum(materialize(cts)), nil
}

// sumDeferred folds (…(c0+c1)+c2)+… while every input is a live
// deferred value. It reports false — releasing the intermediates it
// made — when an input has another form or a fusion falls back (mixed
// domains, bound overflow), leaving the caller to take the materialized
// path.
func sumDeferred(cts []bfv.Value) (bfv.Value, bool) {
	if len(cts) < 2 {
		return nil, false
	}
	for _, ct := range cts {
		if _, ok := ct.(*bfv.Deferred); !ok {
			return nil, false
		}
	}
	acc := cts[0].(*bfv.Deferred)
	for i, ct := range cts[1:] {
		sum, ok := acc.Add(ct.(*bfv.Deferred))
		if i > 0 {
			acc.Release() // an intermediate of this fold, not an input
		}
		if !ok {
			return nil, false
		}
		acc = sum
	}
	return acc, true
}

// Rotate keeps the hoisted one-ciphertext-many-keys shape NTT-resident
// — its consumers aggregate, and deferred outputs sum without base
// conversions. Every other shape materializes: a rotation under a single
// key is read as coefficients straight away, where deferral would only
// add a forward transform of c0.
func (e *evalEngine) Rotate(cts []bfv.Value, gks []*bfv.GaloisKey) ([][]bfv.Value, error) {
	raw := materialize(cts)
	if len(raw) == 1 && len(gks) == 1 {
		r, err := e.ev.ApplyGalois(raw[0], gks[0])
		if err != nil {
			return nil, err
		}
		return [][]bfv.Value{{r}}, nil
	}
	if len(raw) == 1 {
		rots, err := e.be.RotateManyNTT(raw[0], gks)
		if err != nil {
			return nil, err
		}
		return [][]bfv.Value{values(rots)}, nil
	}
	rows, err := e.be.RotateManyAll(raw, gks)
	if err != nil {
		return nil, err
	}
	out := make([][]bfv.Value, len(rows))
	for i, row := range rows {
		out[i] = values(row)
	}
	return out, nil
}

func (e *evalEngine) RotateAndSum(cts []bfv.Value, gks []*bfv.GaloisKey) ([]bfv.Value, error) {
	out, err := e.be.RotateAndSum(materialize(cts), gks)
	if err != nil {
		return nil, err
	}
	return values(out), nil
}

func (e *evalEngine) Report() Report { return Report{} }

// ctServer evaluates one coefficient-form ciphertext at a time, each
// call with its own error: the shape of bfv.Oracle and hepim.Server.
type ctServer interface {
	Add(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Mul(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)
	Neg(a *bfv.Ciphertext) (*bfv.Ciphertext, error)
	AddPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error)
	MulPlain(a *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error)
	Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error)
	ApplyGalois(ct *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error)
}

// serialEngine adapts a ctServer ("schoolbook", "pim") to the Engine
// contract: batches run element by element on materialized inputs, and
// it releases every intermediate it makes (a rotation, a partial sum,
// the outputs of a failed batch) — a no-op on the PIM server's heap
// outputs. One lock serializes everything: the PIM server's accounting
// is unsynchronized, and the oracle is a reference, not a served path.
type serialEngine struct {
	mu     sync.Mutex
	srv    ctServer
	report func() Report // read under mu
}

// each runs f(0), …, f(n−1) under the lock and returns the results,
// releasing those already made if one fails.
func (e *serialEngine) each(n int, f func(i int) (*bfv.Ciphertext, error)) ([]bfv.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*bfv.Ciphertext, n)
	for i := range out {
		r, err := f(i)
		if err != nil {
			for _, ct := range out[:i] {
				ct.Release()
			}
			return nil, err
		}
		out[i] = r
	}
	return values(out), nil
}

// one runs a single-result operation under the lock.
func (e *serialEngine) one(f func() (*bfv.Ciphertext, error)) (bfv.Value, error) {
	out, err := e.each(1, func(int) (*bfv.Ciphertext, error) { return f() })
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// zip applies a two-operand server operation element-wise.
func (e *serialEngine) zip(op string, as, bs []bfv.Value, f func(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)) ([]bfv.Value, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("hebfv: %s length mismatch: %d vs %d", op, len(as), len(bs))
	}
	return e.each(len(as), func(i int) (*bfv.Ciphertext, error) {
		return f(as[i].Materialize(), bs[i].Materialize())
	})
}

func (e *serialEngine) Add(as, bs []bfv.Value) ([]bfv.Value, error) {
	return e.zip("Add", as, bs, e.srv.Add)
}

func (e *serialEngine) Mul(as, bs []bfv.Value) ([]bfv.Value, error) {
	return e.zip("Mul", as, bs, e.srv.Mul)
}

func (e *serialEngine) Neg(a bfv.Value) (bfv.Value, error) {
	return e.one(func() (*bfv.Ciphertext, error) { return e.srv.Neg(a.Materialize()) })
}

func (e *serialEngine) AddPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return e.one(func() (*bfv.Ciphertext, error) { return e.srv.AddPlain(a.Materialize(), pt) })
}

func (e *serialEngine) MulPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return e.one(func() (*bfv.Ciphertext, error) { return e.srv.MulPlain(a.Materialize(), pt) })
}

func (e *serialEngine) Sum(cts []bfv.Value) (bfv.Value, error) {
	return e.one(func() (*bfv.Ciphertext, error) { return e.srv.Sum(materialize(cts)) })
}

func (e *serialEngine) Rotate(cts []bfv.Value, gks []*bfv.GaloisKey) ([][]bfv.Value, error) {
	k := len(gks)
	flat, err := e.each(len(cts)*k, func(i int) (*bfv.Ciphertext, error) {
		return e.srv.ApplyGalois(cts[i/k].Materialize(), gks[i%k])
	})
	if err != nil {
		return nil, err
	}
	out := make([][]bfv.Value, len(cts))
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out, nil
}

// RotateAndSum folds ct + τ_{gks[0]}(ct) + … in key order onto a copy of
// ct (never aliased, even with no steps), releasing each rotation and
// each partial sum once it is consumed.
func (e *serialEngine) RotateAndSum(cts []bfv.Value, gks []*bfv.GaloisKey) ([]bfv.Value, error) {
	return e.each(len(cts), func(i int) (*bfv.Ciphertext, error) {
		ct := cts[i].Materialize()
		acc := ct.Clone()
		for _, gk := range gks {
			r, err := e.srv.ApplyGalois(ct, gk)
			if err != nil {
				acc.Release()
				return nil, err
			}
			next, err := e.srv.Add(acc, r)
			acc.Release()
			r.Release()
			if err != nil {
				return nil, err
			}
			acc = next
		}
		return acc, nil
	})
}

func (e *serialEngine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.report()
}
