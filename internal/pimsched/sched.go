package pimsched

import (
	"fmt"

	"repro/internal/pim"
)

// Shard is one placeable unit of work: words [Lo, Hi) of every input
// of its run and of the run's output, and the tasklet program that
// computes them. Wherever the scheduler places it, input v's slice is
// staged at MRAM word v·(Hi−Lo) and the output is gathered from
// len(in)·(Hi−Lo); a nil Kernel runs an empty tasklet program. The
// transfer cost model prices those same slices, so the declared bytes
// are the copied bytes.
type Shard struct {
	Lo, Hi int
	Kernel pim.KernelFunc
}

// Scheduler places shard plans on one simulated System, runs them and
// prices them. It is not safe for concurrent Run calls — callers
// serialize (the hepim server already runs ops one at a time per
// context).
type Scheduler struct {
	Sys  *pim.System
	Topo Topology
	Xfer TransferModel
	// Overlap prices the makespan as a pipeline in which one rank's
	// transfers overlap another rank's compute; without it the makespan
	// is the serial sum of every phase.
	Overlap bool
}

// New builds a scheduler over sys with the given topology. The
// topology must fit inside the system's DPU array (the scheduler
// addresses DPUs [0, topo.NumDPUs())).
func New(sys *pim.System, topo Topology, overlap bool) (*Scheduler, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.NumDPUs() > len(sys.DPUs) {
		return nil, fmt.Errorf("pimsched: topology %v exceeds system's %d DPUs", topo, len(sys.DPUs))
	}
	return &Scheduler{
		Sys:     sys,
		Topo:    topo,
		Xfer:    NewTransferModel(sys.Config, topo),
		Overlap: overlap,
	}, nil
}

// OneDPU builds a fresh one-DPU system under cfg and the scheduler over
// it: the machine the performance model's calibration probes and the
// simulator figures run on, which read kernel cycles and energy, not
// placement.
func OneDPU(cfg pim.SystemConfig) (*Scheduler, error) {
	cfg.NumDPUs = 1
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return New(sys, FitTopology(1), false)
}

// liveDPUs lists the live DPUs inside the topology, in ID order.
func (s *Scheduler) liveDPUs() []int {
	live := s.Sys.LiveDPUIDs()
	for i, id := range live {
		if id >= s.Topo.NumDPUs() {
			return live[:i]
		}
	}
	return live
}

// TargetShards picks how many shards to cut for `items` independent
// work items: one per live in-topology DPU, fewer when there are fewer
// items (always ≥ 1; a fully dead system surfaces ErrNoLiveDPUs at
// Run time instead).
func (s *Scheduler) TargetShards(items int) int {
	return max(1, min(items, len(s.liveDPUs())))
}

// chunk is the launch granularity: one rank's shards of one wave. The
// scheduler issues one LaunchOn per chunk, and the timeline prices each
// chunk's copy-in, kernel and copy-out as one rank's phases.
type chunk struct {
	rank    int
	wave    int
	shards  []int            // indices into the run's shards
	dpus    []int            // dpus[j] runs shards[j]
	kernels []pim.KernelFunc // kernels[j] is shards[j]'s program
}

// A Plan is a shard plan compiled for one Scheduler: the shards, the
// chunks their first round launches in and each chunk's kernels, placed
// on the DPUs that were live when it was compiled. It runs as often as
// asked and is not changed by running. After a DPU has died a plan
// still runs to the right result: the shards placed on the dead DPU
// fail their launch and are re-placed on survivors, as when a DPU dies
// during a run. Its owner compiles it again, once Placed reports false,
// to place on the survivors alone.
type Plan struct {
	shards []Shard
	chunks []chunk
	epoch  uint64 // the System's LiveEpoch when chunks were placed
}

// Compile places shards on the live DPUs inside the topology. The
// shards' word ranges index every input and the output of each Run.
func (s *Scheduler) Compile(shards []Shard) (*Plan, error) {
	all := make([]int, len(shards))
	for i := range all {
		all[i] = i
	}
	chunks, err := s.place(shards, all)
	if err != nil {
		return nil, err
	}
	return &Plan{shards: shards, chunks: chunks, epoch: s.Sys.LiveEpoch()}, nil
}

// Placed reports whether p's first round is placed on live DPUs alone:
// no DPU has died since it was compiled.
func (s *Scheduler) Placed(p *Plan) bool { return p.epoch == s.Sys.LiveEpoch() }

// place cuts the pending shards into chunks: shards land on live DPUs
// in ID order (wave after wave when there are fewer live DPUs than
// shards), and each wave splits at rank boundaries.
func (s *Scheduler) place(shards []Shard, pending []int) ([]chunk, error) {
	live := s.liveDPUs()
	if len(live) == 0 {
		return nil, pim.ErrNoLiveDPUs
	}
	var chunks []chunk
	for w := 0; w < len(pending); w += len(live) {
		waveLen := min(len(live), len(pending)-w)
		cur := chunk{rank: -1}
		for j := 0; j < waveLen; j++ {
			dpu := live[j]
			r := s.Topo.RankOf(dpu)
			if r != cur.rank {
				if len(cur.shards) > 0 {
					chunks = append(chunks, cur)
				}
				cur = chunk{rank: r, wave: w / len(live)}
			}
			si := pending[w+j]
			k := shards[si].Kernel
			if k == nil {
				k = emptyKernel
			}
			cur.shards = append(cur.shards, si)
			cur.dpus = append(cur.dpus, dpu)
			cur.kernels = append(cur.kernels, k)
		}
		if len(cur.shards) > 0 {
			chunks = append(chunks, cur)
		}
	}
	return chunks, nil
}

// timeline is the modeled pipeline state, carried across retry rounds.
// Copy-in transfers serialize on the in-bus, copy-outs on the out-bus,
// and a rank cannot restage until its previous chunk has fully drained
// (single-buffered MRAM: the kernel reads its inputs in place, and the
// gather must not race the next stage).
type timeline struct {
	inBusFree  float64
	outBusFree float64
	rankFree   []float64 // by rank
	makespan   float64
	serial     float64
}

// advance folds one chunk's modeled phases into the pipeline:
//
//	inDone  = max(inBusFree, rankFree[rank]) + tIn
//	compDone = inDone + tK
//	outDone = max(outBusFree, compDone) + tOut
//
// and the no-overlap serial time just sums tIn+tK+tOut.
func (tl *timeline) advance(rank int, tIn, tK, tOut float64) {
	start := tl.inBusFree
	if rf := tl.rankFree[rank]; rf > start {
		start = rf
	}
	inDone := start + tIn
	tl.inBusFree = inDone
	compDone := inDone + tK
	outStart := tl.outBusFree
	if compDone > outStart {
		outStart = compDone
	}
	outDone := outStart + tOut
	tl.outBusFree = outDone
	tl.rankFree[rank] = outDone
	if outDone > tl.makespan {
		tl.makespan = outDone
	}
	tl.serial += tIn + tK + tOut
}

// Run executes plan p over inputs in and output out across the
// topology and returns the merged report. Faulted shards are retried
// (transient) or re-placed on survivors (dead DPU) in bounded rounds,
// each round after the first placed afresh; any non-fault error aborts.
func (s *Scheduler) Run(p *Plan, in [][]uint32, out []uint32) (*Report, error) {
	shards := p.shards
	rep := &Report{Shards: len(shards), Topology: s.Topo, Overlap: s.Overlap}
	for i := range shards {
		words := int64(shards[i].Hi - shards[i].Lo)
		rep.BytesIn += 4 * int64(len(in)) * words
		rep.BytesOut += 4 * words
	}
	tl := timeline{rankFree: make([]float64, s.Topo.Ranks)}
	chunks := p.chunks
	for round := 0; ; round++ {
		failed, err := s.runRound(in, out, shards, chunks, &tl, rep)
		if err != nil {
			return nil, err
		}
		if len(failed) == 0 {
			break
		}
		if round == pim.RetryBudget {
			return nil, fmt.Errorf("%w: %d shard(s) still failing after %d round(s)",
				pim.ErrFaultBudget, len(failed), round+1)
		}
		if chunks, err = s.place(shards, failed); err != nil {
			return nil, err
		}
	}
	rep.MakespanSeconds = tl.makespan
	rep.SerialSeconds = tl.serial
	if !s.Overlap {
		rep.MakespanSeconds = tl.serial
	}
	s.priceEnergy(rep)
	return rep, nil
}

// runRound runs one round's chunks one after another in placement
// order: stage the chunk's shards, launch them, account the launch,
// then gather the shards that ran. It returns the faulted shards, to be
// retried or re-placed in the next round. The launch order keys the
// fault schedule, so a seeded chaos run is reproducible; the overlap
// between ranks is priced by the timeline, not performed.
func (s *Scheduler) runRound(in [][]uint32, out []uint32, shards []Shard, chunks []chunk, tl *timeline, rep *Report) ([]int, error) {
	rep.Launches += len(chunks)
	if rep.ActiveDPUs == 0 {
		// Every later wave reuses a prefix of the first wave's DPUs, and
		// a wave holds one chunk per rank.
		for _, c := range chunks {
			if c.wave > 0 {
				break
			}
			rep.ActiveDPUs += len(c.dpus)
			rep.RanksUsed++
		}
	}
	var failed []int
	for c := range chunks {
		ch := &chunks[c]
		for j, si := range ch.shards {
			if err := s.stage(ch.dpus[j], in, &shards[si]); err != nil {
				return nil, err
			}
		}
		crep, errs := s.Sys.LaunchOn(ch.dpus, ch.kernels)
		s.accountChunk(rep, tl, ch, crep, errs, len(in), shards)
		for j, si := range ch.shards {
			switch fe := errs[j].(type) {
			case nil:
				sh := &shards[si]
				if err := s.Sys.CopyFromDPU(ch.dpus[j], len(in)*(sh.Hi-sh.Lo), out[sh.Lo:sh.Hi]); err != nil {
					return nil, err
				}
			case *pim.FaultError:
				if fe.Permanent {
					s.Sys.NoteRedispatch()
					rep.Resharded++
				} else {
					s.Sys.NoteRetry()
					rep.Retried++
				}
				failed = append(failed, si)
			default:
				return nil, fe
			}
		}
	}
	return failed, nil
}

// emptyKernel is the tasklet program of a shard without a Kernel.
func emptyKernel(*pim.TaskletCtx) error { return nil }

// stage copies a shard's input slices into DPU d's MRAM. It reserves
// the whole layout first, so the MRAM image grows once rather than once
// per input.
func (s *Scheduler) stage(d int, in [][]uint32, sh *Shard) error {
	words := sh.Hi - sh.Lo
	if err := s.Sys.DPUs[d].EnsureMRAM((len(in) + 1) * words); err != nil {
		return err
	}
	for v, x := range in {
		if err := s.Sys.CopyToDPU(d, v*words, x[sh.Lo:sh.Hi]); err != nil {
			return err
		}
	}
	return nil
}

// accountChunk folds one chunk's launch into the report and the
// timeline. tK is the launch's kernel time: the chunk's critical-path
// cycles (the max over its DPUs, straggler inflation included) plus the
// per-launch overhead; tIn/tOut price the chunk's largest per-DPU
// transfer over nIn inputs. Faulted slots still charge their copy-in —
// the bytes moved before the fault are not refunded.
func (s *Scheduler) accountChunk(rep *Report, tl *timeline, c *chunk, crep *pim.Report, errs []error, nIn int, shards []Shard) {
	var maxIn, maxOut int64
	for j, si := range c.shards {
		words := int64(shards[si].Hi - shards[si].Lo)
		maxIn = max(maxIn, 4*int64(nIn)*words)
		if errs[j] == nil {
			maxOut = max(maxOut, 4*words)
		}
	}
	tIn := s.Xfer.InSeconds(maxIn)
	tK := crep.KernelSeconds
	tOut := s.Xfer.OutSeconds(maxOut)
	tl.advance(c.rank, tIn, tK, tOut)

	rep.KernelCycles += crep.KernelCycles
	rep.KernelSeconds += tK
	rep.CopyInSeconds += tIn
	rep.CopyOutSeconds += tOut
	rep.TotalInstr += crep.TotalInstr
	rep.TotalDMACycles += crep.TotalDMACycles
	rep.Counts.Add(&crep.Counts)
}

// priceEnergy prices the run's kernel and transfer energy. Retry
// rounds re-stage their inputs, so re-run shards charge their copy-in
// time again; the BytesIn/BytesOut that transfer energy is priced on
// stay the logical volume of the workload (one pass).
func (s *Scheduler) priceEnergy(rep *Report) {
	em := pim.DefaultEnergyModel()
	krep := &pim.Report{
		TotalInstr:     rep.TotalInstr,
		TotalDMACycles: rep.TotalDMACycles,
		KernelCycles:   rep.KernelCycles,
		ActiveDPUs:     rep.ActiveDPUs,
	}
	rep.EnergyKernelJoules = em.KernelEnergyJoules(krep, &s.Sys.Config)
	rep.EnergyTransferJoules = em.HostTransferEnergyJoules(rep.BytesIn + rep.BytesOut)
}
