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
//   - "schoolbook": the O(n²) limb schoolbook path — the correctness
//     oracle; every backend is bit-identical to it.
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

	// PIMRanks/PIMDPUsPerRank pin the rank×DPU topology of the async
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

	// pool backs the results of the host backends (bfv.Evaluator.Alloc):
	// a Context passes its own, so Release recycles them. Unset, results
	// live on the heap.
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
	var ev *bfv.Evaluator
	switch name {
	case "dcrt-native":
		ev = bfv.NewEvaluator(cfg.Params, cfg.Relin)
	case "schoolbook":
		ev = bfv.NewSchoolbookEvaluator(cfg.Params, cfg.Relin)
	case "pim":
		return newPIMEngine(cfg)
	default:
		return nil, fmt.Errorf("hebfv: unknown backend %q (have %v)", name, Backends())
	}
	ev.Alloc = cfg.pool
	return newEvalEngine(ev), nil
}

// newPIMEngine builds the "pim" backend's simulated PIM server engine.
// The topology is explicit when the config pins one, otherwise the
// largest whole-rank shape fitting the DPU count; an explicit topology
// without an explicit DPU count sizes the system to the topology.
func newPIMEngine(cfg Config) (*pimEngine, error) {
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
	return &pimEngine{srv: srv}, nil
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

// evalEngine adapts a host bfv.Evaluator (either host backend) plus its
// batched front end to the Engine contract. On evaluators that cannot
// defer, the deferred forms arrive already materialized and every path
// below degrades to coefficient arithmetic transparently.
type evalEngine struct {
	ev *bfv.Evaluator
	be *bfv.BatchEvaluator
}

func newEvalEngine(ev *bfv.Evaluator) *evalEngine {
	return &evalEngine{ev: ev, be: bfv.NewBatchEvaluatorFrom(ev)}
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
// add a forward transform of c0 (and a lone one has no decomposition to
// share, so it skips the hoisting machinery too).
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

// pimEngine adapts the simulated UPMEM PIM server. Homomorphic
// arithmetic runs as DPU kernels on the cycle-level simulator, on
// materialized inputs; operations the server does not implement return
// an error naming the backend. The server's kernel-report accounting is
// unsynchronized, so the engine serializes operations behind one lock —
// the simulator models a single machine anyway.
type pimEngine struct {
	mu  sync.Mutex
	srv *hepim.Server
}

// zip applies a two-operand server kernel element-wise.
func (e *pimEngine) zip(op string, as, bs []bfv.Value, kernel func(a, b *bfv.Ciphertext) (*bfv.Ciphertext, error)) ([]bfv.Value, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("hebfv: %s length mismatch: %d vs %d", op, len(as), len(bs))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]bfv.Value, len(as))
	for i := range as {
		r, err := kernel(as[i].Materialize(), bs[i].Materialize())
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (e *pimEngine) Add(as, bs []bfv.Value) ([]bfv.Value, error) {
	return e.zip("Add", as, bs, e.srv.Add)
}

func (e *pimEngine) Mul(as, bs []bfv.Value) ([]bfv.Value, error) {
	return e.zip("Mul", as, bs, e.srv.Mul)
}

func (e *pimEngine) Neg(a bfv.Value) (bfv.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Neg(a.Materialize())
}

func (e *pimEngine) AddPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.AddPlain(a.Materialize(), pt)
}

func (e *pimEngine) MulPlain(bfv.Value, *bfv.Plaintext) (bfv.Value, error) {
	return nil, errors.New("hebfv: backend \"pim\" does not implement MulPlain")
}

func (e *pimEngine) Sum(cts []bfv.Value) (bfv.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv.Sum(materialize(cts))
}

func (e *pimEngine) Rotate(cts []bfv.Value, gks []*bfv.GaloisKey) ([][]bfv.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]bfv.Value, len(cts))
	for i, ct := range materialize(cts) {
		out[i] = make([]bfv.Value, len(gks))
		for j, gk := range gks {
			r, err := e.srv.ApplyGalois(ct, gk)
			if err != nil {
				return nil, err
			}
			out[i][j] = r
		}
	}
	return out, nil
}

func (e *pimEngine) RotateAndSum(cts []bfv.Value, gks []*bfv.GaloisKey) ([]bfv.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]bfv.Value, len(cts))
	for i, ct := range materialize(cts) {
		acc := ct
		if len(gks) == 0 {
			// No steps: never alias the input (see evalEngine.Sum).
			acc = ct.Clone()
		}
		for _, gk := range gks {
			r, err := e.srv.ApplyGalois(ct, gk)
			if err != nil {
				return nil, err
			}
			if acc, err = e.srv.Add(acc, r); err != nil {
				return nil, err
			}
		}
		out[i] = acc
	}
	return out, nil
}

func (e *pimEngine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Report{PIM: &PIMPlaneReport{
		Launches:  e.srv.Runs(),
		Faults:    e.srv.Sys.FaultStats(),
		Breakdown: e.srv.Breakdown(),
	}}
}
