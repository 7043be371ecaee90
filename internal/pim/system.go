package pim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/limb32"
)

// System is a collection of DPUs plus the host-side transfer engine.
//
// Transfer accounting is atomic: an async command queue (internal/
// pimsched) stages the next chunk's CopyToDPU and gathers the previous
// chunk's CopyFromDPU concurrently with an in-flight LaunchOn, so the
// host byte counters are hit from several goroutines at once. Kernel
// launches themselves must still be issued from one dispatcher
// goroutine at a time — the launch sequence numbers the fault
// schedule, so concurrent launches would make a seeded chaos run
// scheduling-dependent.
type System struct {
	Config SystemConfig
	DPUs   []*DPU

	copyInBytes  atomic.Int64
	copyOutBytes atomic.Int64

	// Fault model (see fault.go). faults is nil unless a chaos run
	// attached an injector; launchSeq numbers launches so injection
	// decisions are reproducible.
	faults    *faultinject.Injector
	launchSeq uint64
	faultMu   sync.Mutex
	stats     FaultStats
}

// NewSystem allocates a system; DPU MRAM is grown on demand.
func NewSystem(cfg SystemConfig) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Config: cfg, DPUs: make([]*DPU, cfg.NumDPUs)}
	for i := range s.DPUs {
		s.DPUs[i] = &DPU{ID: i}
	}
	return s, nil
}

// CopyToDPU stages data into a DPU's MRAM at word offset off and accounts
// the host→DPU transfer.
func (s *System) CopyToDPU(dpuID, off int, data []uint32) error {
	d := s.DPUs[dpuID]
	if err := d.EnsureMRAM(off + len(data)); err != nil {
		return err
	}
	copy(d.mram[off:off+len(data)], data)
	s.copyInBytes.Add(int64(4 * len(data)))
	return nil
}

// CopyFromDPU reads a DPU's MRAM at word offset off and accounts the
// DPU→host transfer.
func (s *System) CopyFromDPU(dpuID, off int, dst []uint32) error {
	d := s.DPUs[dpuID]
	if off+len(dst) > len(d.mram) {
		return fmt.Errorf("pim: DPU %d copy-out [%d,%d) beyond MRAM %d",
			dpuID, off, off+len(dst), len(d.mram))
	}
	copy(dst, d.mram[off:off+len(dst)])
	s.copyOutBytes.Add(int64(4 * len(dst)))
	return nil
}

// TransferBytes returns the host→DPU and DPU→host byte totals copied
// over the System's life. It is a counter only: transfer time is priced
// by pimsched.TransferModel. Safe to call concurrently with in-flight
// copies.
func (s *System) TransferBytes() (in, out int64) {
	return s.copyInBytes.Load(), s.copyOutBytes.Load()
}

// KernelFunc is the code one tasklet executes. Kernels are ordinary Go:
// they take scratch from the context's WRAM, read/write MRAM through the
// context (charged DMA) and perform limb arithmetic against the context's
// Meter (charged instructions).
type KernelFunc func(ctx *TaskletCtx) error

// Report is the outcome of one kernel launch.
type Report struct {
	// KernelCycles is the simulated execution time in DPU cycles: the
	// maximum over the active DPUs (they run in parallel).
	KernelCycles int64
	// KernelSeconds = KernelCycles / ClockHz + launch overhead.
	KernelSeconds float64
	// TotalInstr and TotalDMACycles aggregate over all DPUs and tasklets.
	TotalInstr     int64
	TotalDMACycles int64
	// Counts tallies the arithmetic operation mix across the system.
	Counts limb32.Counts
	// ActiveDPUs is how many DPUs ran a non-empty tasklet set.
	ActiveDPUs int
}

// LaunchOn runs kernel(id) on each listed DPU with the configured
// tasklet count, in parallel host goroutines. It returns the launch
// report plus one error slot per listed DPU (aligned with ids): slots
// are nil on success, a *FaultError for injected or pre-existing DPU
// failures, and an ordinary error when the kernel itself failed or
// panicked. The
// report covers the DPUs that ran, so a partially faulted launch still
// charges the cycles it consumed.
//
// Fault-injection decisions are made serially, before any kernel code
// runs, keyed by (launch sequence, DPU ID) — so a seeded chaos run is
// reproducible regardless of scheduling. A DPU hit by SiteDPUDead is
// marked dead before its kernel would have run and stays dead for the
// rest of the System's life.
func (s *System) LaunchOn(ids []int, kernel func(dpuID int) KernelFunc) (*Report, []error) {
	T := s.Config.Tasklets
	errs := make([]error, len(ids))

	// Serial fault-decision pass.
	s.faultMu.Lock()
	s.launchSeq++
	seq := s.launchSeq
	s.faultMu.Unlock()
	run := make([]bool, len(ids))
	straggle := make([]bool, len(ids))
	for i, id := range ids {
		if id < 0 || id >= len(s.DPUs) {
			errs[i] = fmt.Errorf("pim: DPU id %d out of range 0..%d", id, len(s.DPUs)-1)
			continue
		}
		d := s.DPUs[id]
		if d.dead {
			errs[i] = &FaultError{DPU: id, Permanent: true}
			continue
		}
		key := faultinject.Key(seq, uint64(id))
		if s.faults.Hit(SiteDPUDead, key) {
			d.dead = true
			s.faultMu.Lock()
			s.stats.DeadDPUs++
			s.faultMu.Unlock()
			errs[i] = &FaultError{DPU: id, Permanent: true}
			continue
		}
		if s.faults.Hit(SiteDPUTransient, key) {
			s.faultMu.Lock()
			s.stats.TransientFaults++
			s.faultMu.Unlock()
			errs[i] = &FaultError{DPU: id}
			continue
		}
		if s.faults.Hit(SiteDPUStraggler, key) {
			straggle[i] = true
			s.faultMu.Lock()
			s.stats.StragglerHits++
			s.faultMu.Unlock()
		}
		run[i] = true
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, id := range ids {
		if !run[i] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(d *DPU, slot int, kern KernelFunc) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[slot] = d.run(kern, s.Config.Cost, T)
		}(s.DPUs[id], i, kernel(id))
	}
	wg.Wait()

	rep := &Report{}
	for i, id := range ids {
		if !run[i] || errs[i] != nil {
			continue
		}
		d := s.DPUs[id]
		cyc := d.cycles(s.Config.Cost)
		if straggle[i] {
			cyc = int64(float64(cyc) * StragglerFactor)
		}
		rep.ActiveDPUs++
		if cyc > rep.KernelCycles {
			rep.KernelCycles = cyc
		}
		for _, ti := range d.taskletInstr {
			rep.TotalInstr += ti
		}
		for _, td := range d.taskletDMA {
			rep.TotalDMACycles += td
		}
		rep.Counts.Add(&d.counts)
	}
	rep.KernelSeconds = float64(rep.KernelCycles)/s.Config.ClockHz + s.Config.LaunchOverheadSec
	return rep, errs
}

// Partition splits `items` work items across `workers` as evenly as
// possible, returning the [start, end) range of worker w. The standard
// block distribution used by both the DPU-level and tasklet-level splits.
func Partition(items, workers, w int) (start, end int) {
	base := items / workers
	rem := items % workers
	start = w*base + minInt(w, rem)
	end = start + base
	if w < rem {
		end++
	}
	return start, end
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
