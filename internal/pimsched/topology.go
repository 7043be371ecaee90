// Package pimsched is the multi-DPU execution plane: it shards kernel
// work across a rank×DPU topology, runs it, and prices host↔DPU
// transfers with an explicit per-rank cost model, including how far one
// rank's copy-in could overlap another rank's compute.
//
// The package sits between the raw simulator (internal/pim: one
// System, synchronous launches, byte counters) and everything that
// runs a kernel on it — the HE server (internal/hepim), the figures
// and the performance model. It is the only place that knows how work
// is placed on DPUs, staged, retried after faults and priced for
// transfer: the drivers in internal/pim/kernels describe their work as
// a slice of Shard values — a word range of the run's inputs and output
// plus the tasklet program over it. Scheduler.Compile places them on
// live DPUs once, into a Plan, and Scheduler.Run runs the plan as often
// as asked, chunk by chunk (a chunk is one rank's shards of one wave):
// stage, launch, gather, in placement order on the calling goroutine.
// The Report carries both the pipelined makespan and
// the no-overlap serial time, computed from each chunk's modelled
// phases, so the benefit of overlapping ranks is a modelled figure the
// host does not have to perform.
//
// Execution is bit-exact and fault-deterministic: kernels run for real
// over real data, and the launch sequence, which keys the fault
// schedule, is the placement order. A transient fault retries the shard
// and a dead DPU's shards are re-placed on survivors, inputs re-staged,
// in bounded retry rounds.
package pimsched

import "fmt"

// DefaultDPUsPerRank is the UPMEM DIMM geometry: 64 DPUs per rank
// (8 chips × 8 DPUs), the granularity at which the host issues
// parallel transfers and kernel launches.
const DefaultDPUsPerRank = 64

// Topology is the rank×DPU shape of the simulated server. DPU IDs map
// to ranks in row-major order: DPU id lives in rank id/DPUsPerRank.
type Topology struct {
	Ranks       int
	DPUsPerRank int
}

// FitTopology derives the largest whole-rank topology that fits
// *inside* an existing system of numDPUs: it rounds down, so it can
// schedule over systems whose DPU count is not rank-aligned, like the
// paper machine's 2524 functional DPUs. Small systems (≤ one rank) get
// a single rank of exactly numDPUs; leftover DPUs beyond the last whole
// rank are not scheduled.
func FitTopology(numDPUs int) Topology {
	if numDPUs <= 0 {
		numDPUs = 1
	}
	if numDPUs <= DefaultDPUsPerRank {
		return Topology{Ranks: 1, DPUsPerRank: numDPUs}
	}
	return Topology{Ranks: numDPUs / DefaultDPUsPerRank, DPUsPerRank: DefaultDPUsPerRank}
}

// NumDPUs is the total DPU count of the topology.
func (t Topology) NumDPUs() int { return t.Ranks * t.DPUsPerRank }

// RankOf maps a DPU ID to its rank.
func (t Topology) RankOf(dpuID int) int { return dpuID / t.DPUsPerRank }

// Validate reports shape errors.
func (t Topology) Validate() error {
	if t.Ranks <= 0 || t.DPUsPerRank <= 0 {
		return fmt.Errorf("pimsched: topology %d×%d must be positive", t.Ranks, t.DPUsPerRank)
	}
	return nil
}

func (t Topology) String() string {
	return fmt.Sprintf("%d ranks × %d DPUs (%d total)", t.Ranks, t.DPUsPerRank, t.NumDPUs())
}
