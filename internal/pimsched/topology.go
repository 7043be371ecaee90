// Package pimsched is the async multi-DPU execution plane: it shards
// kernel work across a rank×DPU topology, prices host↔DPU transfers
// with an explicit per-rank cost model, and pipelines staging, launch,
// and gathering so one rank's copy-in overlaps another rank's compute.
//
// The package sits between the raw simulator (internal/pim: one
// System, synchronous launches, byte counters) and everything that
// runs a kernel on it — the HE server (internal/hepim), the figures
// and the performance model. It is the only place that knows how work
// is placed on DPUs, retried after faults and priced for transfer:
// the drivers in internal/pim/kernels describe their work as a slice
// of Shard values — stage/kernel/gather closures plus declared
// transfer bytes — and Scheduler.Run places them on live DPUs,
// executes them chunk by chunk (a chunk is one rank's shards of one
// wave), and returns a Report with both the pipelined makespan and the
// no-overlap serial time, so the benefit of double-buffering is a
// measured, not asserted, quantity.
//
// Execution remains bit-exact and fault-deterministic: kernels run for
// real over real data, all LaunchOn calls are issued by a single
// dispatcher goroutine in chunk order (the launch sequence keys the
// fault schedule), and only the staging/gathering memcpys run
// concurrently. A transient fault retries the shard and a dead DPU's
// shards are re-placed on survivors, inputs re-staged, in bounded retry
// rounds.
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

// DefaultTopology is the paper's server rounded to whole ranks:
// 40 ranks × 64 DPUs = 2560 DPUs (the machine's 2524 functional DPUs
// live in 40 ranks with a few dead units).
func DefaultTopology() Topology {
	return Topology{Ranks: 40, DPUsPerRank: DefaultDPUsPerRank}
}

// TopologyFor derives the smallest whole-rank topology holding numDPUs
// at the default rank width. Small systems (≤ one rank) get a single
// rank of exactly numDPUs.
func TopologyFor(numDPUs int) Topology {
	if numDPUs <= 0 {
		numDPUs = 1
	}
	if numDPUs <= DefaultDPUsPerRank {
		return Topology{Ranks: 1, DPUsPerRank: numDPUs}
	}
	ranks := (numDPUs + DefaultDPUsPerRank - 1) / DefaultDPUsPerRank
	return Topology{Ranks: ranks, DPUsPerRank: DefaultDPUsPerRank}
}

// FitTopology derives the largest whole-rank topology that fits
// *inside* an existing system of numDPUs (TopologyFor rounds up and is
// for sizing new systems; FitTopology rounds down and is for
// scheduling over systems whose DPU count is not rank-aligned, like
// the paper machine's 2524 functional DPUs). Leftover DPUs beyond the
// last whole rank are not scheduled.
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
