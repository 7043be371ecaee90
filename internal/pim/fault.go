package pim

import (
	"errors"
	"fmt"

	"repro/internal/faultinject"
)

// Per-DPU fault model. Real PIM deployments must tolerate transient
// launch failures, permanently failed DPUs, and stragglers; the
// simulator injects all three deterministically through an optional
// faultinject.Injector attached to the System. Injection decisions are
// made serially at launch time, keyed by (launch sequence, DPU ID), so
// a seeded chaos run is exactly reproducible regardless of goroutine
// scheduling. With no injector attached every hook is a nil check.
//
// Fault classes (the injector site names):
//
//   - SiteDPUTransient: this launch fails on this DPU with a detected,
//     retryable error; the DPU itself stays healthy.
//   - SiteDPUDead: the DPU fails permanently — it is excluded from
//     LiveDPUIDs and its staged MRAM contents are considered lost, so
//     the host must re-dispatch its shard to a survivor.
//   - SiteDPUStraggler: the launch succeeds but this DPU's modeled
//     cycles inflate by StragglerFactor — the tail-latency model.
const (
	SiteDPUTransient = "dpu.transient"
	SiteDPUDead      = "dpu.dead"
	SiteDPUStraggler = "dpu.straggler"
)

// StragglerFactor multiplies a straggling DPU's modeled cycles.
const StragglerFactor = 8.0

// RetryBudget bounds fault-retry rounds per sharded kernel run: the
// initial attempt plus this many retries.
const RetryBudget = 4

// FaultError is a detected per-DPU launch failure — injected by the
// fault model, or synthesized when work is dispatched to a DPU that has
// already died. Transient errors are retryable in place; permanent ones
// require re-dispatching the DPU's shard to a survivor.
type FaultError struct {
	DPU       int
	Permanent bool
}

func (e *FaultError) Error() string {
	if e.Permanent {
		return fmt.Sprintf("pim: DPU %d failed permanently", e.DPU)
	}
	return fmt.Sprintf("pim: DPU %d transient launch fault", e.DPU)
}

// ErrFaultBudget marks a sharded kernel run that kept faulting past its
// retry budget; callers treat it as "this backend is unhealthy" and
// fail over.
var ErrFaultBudget = errors.New("pim: DPU fault retry budget exhausted")

// ErrNoLiveDPUs marks a system whose every DPU has died.
var ErrNoLiveDPUs = errors.New("pim: no live DPUs remain")

// IsFault reports whether err belongs to the fault-model taxonomy
// (injected/permanent DPU failures, exhausted retry budgets, a dead
// system) as opposed to a semantic error like an operand mismatch.
func IsFault(err error) bool {
	var fe *FaultError
	return errors.Is(err, ErrFaultBudget) || errors.Is(err, ErrNoLiveDPUs) || errors.As(err, &fe)
}

// FaultStats counts the fault model's activity on one System.
type FaultStats struct {
	TransientFaults int // injected transient launch failures
	DeadDPUs        int // DPUs that died permanently
	StragglerHits   int // launches with inflated modeled cycles
	Retries         int // shard re-launches after transient faults
	Redispatches    int // shards moved off dead DPUs to survivors
}

// SetFaultInjector attaches (or, with nil, detaches) the fault
// injector. Call before launching kernels, not concurrently with them.
func (s *System) SetFaultInjector(in *faultinject.Injector) { s.faults = in }

// FaultStats returns a snapshot of the fault counters.
func (s *System) FaultStats() FaultStats {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.stats
}

// NoteRetry records a shard re-launch after a transient fault.
func (s *System) NoteRetry() {
	s.faultMu.Lock()
	s.stats.Retries++
	s.faultMu.Unlock()
}

// NoteRedispatch records a shard moved off a dead DPU to a survivor.
func (s *System) NoteRedispatch() {
	s.faultMu.Lock()
	s.stats.Redispatches++
	s.faultMu.Unlock()
}

// LiveDPUIDs returns the IDs of the DPUs that have not died, in
// ascending order.
func (s *System) LiveDPUIDs() []int {
	out := make([]int, 0, len(s.DPUs))
	for _, d := range s.DPUs {
		if !d.dead {
			out = append(out, d.ID)
		}
	}
	return out
}
