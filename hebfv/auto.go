package hebfv

import (
	"sync"
	"time"

	"repro/internal/bfv"
)

// The "auto" backend: a first heterogeneous scheduler over the host
// and PIM engines. It holds both a dcrt-native host engine and the
// simulated PIM server engine and routes each batch (Add, Mul, Sum,
// Rotate, RotateAndSum over more than one item) to whichever side a
// per-op-family cost estimate says is cheaper. Singletons — a length-1
// batch, and the never-batched Neg/AddPlain/MulPlain — always run on
// the host: one ciphertext never amortizes a DPU launch, which is the
// paper's own offload rule (batch work goes to the PIM server, scalar
// work stays on the host CPU).
//
// The two cost estimates are deliberately asymmetric, matching what
// each side actually is in this repository: the host cost is *measured*
// wall time per item (the host engine is real code on the real CPU),
// while the PIM cost is the *modeled* makespan per item the async
// execution plane reports (the simulator's functional execution time is
// meaningless — its modeled time is the quantity the paper compares).
// Each family's first batch runs on the host and is timed; its second
// probes the PIM plane; from the third on, the cheaper estimate wins
// and the winning side's estimate is refreshed by an exponential moving
// average. Every decision is recorded and surfaced through
// Context.AutoStats.
//
// Routing is invisible in results: the backend contract makes host and
// PIM engines bit-identical, so the scheduler is free to move a batch
// at any time. A fault-class PIM error (injected fault past the retry
// budget, dead machine, converted panic) retires the PIM side for the
// context's lifetime and replays the failed batch on the host. A batch
// routed to the host returns NTT-resident values like any dcrt-native
// result; the PIM side materializes whatever it is handed.

// AutoDecision records one batched-operation routing choice.
type AutoDecision struct {
	Op     string // engine operation ("Add", "Mul", "Sum", "Rotate", "RotateAndSum")
	Items  int    // batch size the decision covered
	Target string // "host" or "pim"
	// Reason is why the target won: "probe-host"/"probe-pim" (first
	// exposure of the op family to each side), "modeled-cost" (the
	// estimates decided), "pim-offline" (the PIM side was retired), or
	// "pim-failover" (this batch replayed on the host after a
	// fault-class PIM error).
	Reason string
	// The per-item cost estimates at decision time, in seconds: the
	// host's measured wall time and the PIM plane's modeled makespan.
	// Zero means the side had not been probed yet.
	HostSecondsPerItem float64
	PIMSecondsPerItem  float64
}

// AutoStats is the decision surface of the "auto" backend (see
// Context.AutoStats): how many batched operations each side ran, the
// recent routing decisions with the estimates that drove them, and
// whether the PIM side has been retired by a fault.
type AutoStats struct {
	HostOps    int  // batches routed to the host engine
	PIMOps     int  // batches routed to the PIM engine
	Singletons int  // single-item ops (always host)
	PIMOffline bool // the PIM engine was retired after a fault-class error
	Decisions  []AutoDecision
}

// autoDecisionCap bounds the retained decision log: long-lived serving
// contexts keep the most recent window, not an unbounded history.
const autoDecisionCap = 512

// famEstimate is one op family's per-item cost state.
type famEstimate struct {
	hostPerItem float64 // EWMA of measured host seconds per item
	hostN       int     // host batches observed
	pimPerItem  float64 // EWMA of modeled PIM makespan seconds per item
	pimN        int     // PIM batches observed
}

type autoEngine struct {
	host Engine     // dcrt-native: measured side, and the fault fallback
	pimE *pimEngine // simulated PIM server: modeled side

	// pimMu serializes PIM-routed batches so the modeled-makespan delta
	// read around each one is attributable to that batch alone.
	pimMu sync.Mutex

	mu      sync.Mutex
	fams    map[string]*famEstimate
	stats   AutoStats
	pimDown bool
}

func newAutoEngine(cfg Config) (*autoEngine, error) {
	pe, err := newPIMEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &autoEngine{
		host: newEvalEngine(bfv.NewEvaluator(cfg.Params, cfg.Relin)),
		pimE: pe,
		fams: map[string]*famEstimate{},
	}, nil
}

// fam returns (creating on first use) the op family's estimate state.
// Caller holds e.mu.
func (e *autoEngine) fam(op string) *famEstimate {
	f := e.fams[op]
	if f == nil {
		f = &famEstimate{}
		e.fams[op] = f
	}
	return f
}

// record appends a decision and bumps the side counter. Caller holds
// e.mu.
func (e *autoEngine) record(dec AutoDecision) {
	if dec.Target == "pim" {
		e.stats.PIMOps++
	} else {
		e.stats.HostOps++
	}
	if len(e.stats.Decisions) >= autoDecisionCap {
		n := copy(e.stats.Decisions, e.stats.Decisions[1:])
		e.stats.Decisions = e.stats.Decisions[:n]
	}
	e.stats.Decisions = append(e.stats.Decisions, dec)
}

// pick chooses the target for one batch and records the decision.
func (e *autoEngine) pick(op string, items int) AutoDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fam(op)
	dec := AutoDecision{
		Op: op, Items: items,
		HostSecondsPerItem: f.hostPerItem,
		PIMSecondsPerItem:  f.pimPerItem,
	}
	switch {
	case f.hostN == 0:
		dec.Target, dec.Reason = "host", "probe-host"
	case e.pimDown:
		dec.Target, dec.Reason = "host", "pim-offline"
	case f.pimN == 0:
		dec.Target, dec.Reason = "pim", "probe-pim"
	case f.pimPerItem <= f.hostPerItem:
		dec.Target, dec.Reason = "pim", "modeled-cost"
	default:
		dec.Target, dec.Reason = "host", "modeled-cost"
	}
	e.record(dec)
	return dec
}

// ewma folds a new observation into an estimate (plain average of old
// and new — responsive without whiplash on the small batch counts a
// context sees).
func ewma(old float64, n int, obs float64) float64 {
	if n == 0 {
		return obs
	}
	return (old + obs) / 2
}

func (e *autoEngine) observeHost(op string, perItem float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fam(op)
	f.hostPerItem = ewma(f.hostPerItem, f.hostN, perItem)
	f.hostN++
}

func (e *autoEngine) observePIM(op string, perItem float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fam(op)
	f.pimPerItem = ewma(f.pimPerItem, f.pimN, perItem)
	f.pimN++
}

// retirePIM marks the PIM side dead and records the failover replay of
// the batch that killed it.
func (e *autoEngine) retirePIM(op string, items int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pimDown = true
	e.stats.PIMOffline = true
	e.record(AutoDecision{Op: op, Items: items, Target: "host", Reason: "pim-failover"})
}

// single counts one singleton and returns the engine it runs on: always
// the host.
func (e *autoEngine) single() Engine {
	e.mu.Lock()
	e.stats.Singletons++
	e.mu.Unlock()
	return e.host
}

// route runs one op: a singleton on the host, a batch on the side pick
// chose — keeping the cost estimates fresh and falling back to the host
// on a fault-class PIM error (retiring the PIM side). Panics on either
// engine surface as errors via safeOp, exactly like the failover
// wrapper.
func route[T any](e *autoEngine, op string, items int, run func(Engine) (T, error)) (T, error) {
	if items <= 1 {
		return run(e.single())
	}
	if e.pick(op, items).Target == "host" {
		return runHostOp(e, op, items, run)
	}
	e.pimMu.Lock()
	before := e.pimE.Report().PIM.Breakdown.MakespanSeconds
	out, err := safeOp(e.pimE, run)
	after := e.pimE.Report().PIM.Breakdown.MakespanSeconds
	e.pimMu.Unlock()
	if err == nil {
		e.observePIM(op, (after-before)/float64(items))
		return out, nil
	}
	if !faultClass(err) {
		return out, err
	}
	e.retirePIM(op, items)
	return runHostOp(e, op, items, run)
}

// runHostOp runs one batch on the host engine and folds its measured
// per-item wall time into the family's host estimate.
func runHostOp[T any](e *autoEngine, op string, items int, run func(Engine) (T, error)) (T, error) {
	start := time.Now()
	out, err := safeOp(e.host, run)
	if err == nil {
		e.observeHost(op, time.Since(start).Seconds()/float64(items))
	}
	return out, err
}

func (e *autoEngine) Add(as, bs []bfv.Value) ([]bfv.Value, error) {
	return route(e, "Add", len(as), func(g Engine) ([]bfv.Value, error) { return g.Add(as, bs) })
}

func (e *autoEngine) Mul(as, bs []bfv.Value) ([]bfv.Value, error) {
	return route(e, "Mul", len(as), func(g Engine) ([]bfv.Value, error) { return g.Mul(as, bs) })
}

func (e *autoEngine) Neg(a bfv.Value) (bfv.Value, error) { return e.single().Neg(a) }

func (e *autoEngine) AddPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return e.single().AddPlain(a, pt)
}

func (e *autoEngine) MulPlain(a bfv.Value, pt *bfv.Plaintext) (bfv.Value, error) {
	return e.single().MulPlain(a, pt)
}

func (e *autoEngine) Sum(cts []bfv.Value) (bfv.Value, error) {
	return route(e, "Sum", len(cts), func(g Engine) (bfv.Value, error) { return g.Sum(cts) })
}

func (e *autoEngine) Rotate(cts []bfv.Value, gks []*bfv.GaloisKey) ([][]bfv.Value, error) {
	return route(e, "Rotate", len(cts)*len(gks), func(g Engine) ([][]bfv.Value, error) {
		return g.Rotate(cts, gks)
	})
}

func (e *autoEngine) RotateAndSum(cts []bfv.Value, gks []*bfv.GaloisKey) ([]bfv.Value, error) {
	return route(e, "RotateAndSum", len(cts), func(g Engine) ([]bfv.Value, error) {
		return g.RotateAndSum(cts, gks)
	})
}

// Report is the PIM side's modeled-hardware report — so
// Context.PIMReport/PIMStats/PIMBreakdown work on auto contexts — plus
// a copy of the decision surface.
func (e *autoEngine) Report() Report {
	rep := e.pimE.Report()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Decisions = append([]AutoDecision(nil), e.stats.Decisions...)
	rep.Auto = &st
	return rep
}
