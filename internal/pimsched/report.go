package pimsched

import "repro/internal/limb32"

// Report is the outcome of one Scheduler.Run: the sharded
// cycle/transfer/energy breakdown of a multi-DPU execution.
//
// Two end-to-end times are always computed from the same per-chunk
// phases. SerialSeconds is the no-overlap sum Σ(tIn+tK+tOut) over all
// chunks; MakespanSeconds is the pipelined completion time where
// copy-ins serialize on the in-bus, copy-outs on the out-bus, compute
// runs rank-parallel, and a rank restages only after draining its
// previous chunk. With Overlap disabled MakespanSeconds equals
// SerialSeconds, so overlap's benefit is the ratio of the two fields.
type Report struct {
	Topology Topology
	Overlap  bool

	Shards     int // placeable work units in the run
	Launches   int // rank-granularity LaunchOn calls (incl. retry rounds)
	ActiveDPUs int // distinct DPUs used in the first round
	RanksUsed  int // distinct ranks used in the first round

	// KernelCycles sums each chunk's critical-path cycles (max over its
	// DPUs, straggler inflation included): the compute-serial total.
	KernelCycles  int64
	KernelSeconds float64 // Σ per-chunk kernel time incl. launch overhead
	// CopyInSeconds/CopyOutSeconds sum the per-chunk rank transfer
	// times (the serial transfer components of SerialSeconds).
	CopyInSeconds  float64
	CopyOutSeconds float64
	BytesIn        int64 // host→DPU bytes of the plan's slices (one logical pass)
	BytesOut       int64 // DPU→host bytes of the plan's slices

	MakespanSeconds float64 // pipelined end-to-end time
	SerialSeconds   float64 // no-overlap end-to-end time

	EnergyKernelJoules   float64 // DPU dynamic + DMA + static energy
	EnergyTransferJoules float64 // host↔DPU interface energy

	Retried   int // shard re-launches after transient faults
	Resharded int // shards re-placed off dead DPUs onto survivors

	TotalInstr     int64
	TotalDMACycles int64
	Counts         limb32.Counts
}

// Accumulate folds another run's report into r (for op-level
// aggregation in the HE server): counts and serial components add;
// makespans add too, because successive Runs execute back to back.
func (r *Report) Accumulate(o *Report) {
	r.Shards += o.Shards
	r.Launches += o.Launches
	if o.ActiveDPUs > r.ActiveDPUs {
		r.ActiveDPUs = o.ActiveDPUs
	}
	if o.RanksUsed > r.RanksUsed {
		r.RanksUsed = o.RanksUsed
	}
	r.KernelCycles += o.KernelCycles
	r.KernelSeconds += o.KernelSeconds
	r.CopyInSeconds += o.CopyInSeconds
	r.CopyOutSeconds += o.CopyOutSeconds
	r.BytesIn += o.BytesIn
	r.BytesOut += o.BytesOut
	r.MakespanSeconds += o.MakespanSeconds
	r.SerialSeconds += o.SerialSeconds
	r.EnergyKernelJoules += o.EnergyKernelJoules
	r.EnergyTransferJoules += o.EnergyTransferJoules
	r.Retried += o.Retried
	r.Resharded += o.Resharded
	r.TotalInstr += o.TotalInstr
	r.TotalDMACycles += o.TotalDMACycles
	r.Counts.Add(&o.Counts)
}
