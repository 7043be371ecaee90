// Package hepim executes BFV homomorphic operations on the simulated
// UPMEM PIM system — the deployment the paper proposes (§3): users
// encrypt locally, the PIM server computes on ciphertexts, results come
// back still encrypted.
//
// Addition and summation run entirely as DPU kernels and are bit-exact
// against the host evaluator. Multiplication follows the paper's split:
// the polynomial multiplications (the dominant cost) run on the PIM
// cores, while the host performs the t/q rescaling. The tensor products
// run as one-limb products of residues modulo primes below 2³¹, whose
// product bounds every tensor coefficient, so the host's CRT is exact.
package hepim

import (
	"errors"
	"slices"

	"repro/internal/bfv"
	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
	"repro/internal/rns"
)

// Server is a BFV evaluation service on the simulated PIM system.
// Operands are not resident: every operation stages its ciphertexts into
// DPU memory, runs its kernels and gathers the results back, so each
// call pays its own transfers. All kernels run through the
// multi-DPU execution plane (internal/pimsched): work is sharded over
// the scheduler's rank×DPU topology and every kernel run's report — the
// sharded cycle/transfer/energy breakdown, with both the pipelined
// makespan and the no-overlap serial time — is folded into one running
// total.
//
// The server keeps one compiled plan per driver — the sums (Add, Sum
// and a key switch's two sums), the Mul's tensor products and the
// key-switching products — for the operand shape that driver last ran,
// and compiles it again when the shape changes or a DPU has died. A
// plan holds placement and programs, never operands or results. The
// server is not safe for concurrent use.
type Server struct {
	Sys    *pim.System
	Sched  *pimsched.Scheduler
	Params *bfv.Parameters

	tensor *rns.Rounder // residues and exact rescaling of the tensor products
	rlk    *bfv.RelinKey

	sumPlan, tensorPlan, keyPlan *kernels.Plan

	total pimsched.Report // sum of every kernel run since ResetReports
	runs  int             // how many runs total holds
}

// NewServerWithTopology builds a PIM evaluation server scheduling over
// an explicit rank×DPU topology. The topology must fit within
// cfg.NumDPUs; the modeled makespan pipelines staging against compute,
// and every report also carries the serial time.
func NewServerWithTopology(cfg pim.SystemConfig, params *bfv.Parameters, rlk *bfv.RelinKey, topo pimsched.Topology) (*Server, error) {
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := pimsched.New(sys, topo, true)
	if err != nil {
		return nil, err
	}
	tensor, err := rns.NewRounder(params.Q, params.N, params.T)
	if err != nil {
		return nil, err
	}
	srv := &Server{Sys: sys, Sched: sched, Params: params, tensor: tensor, rlk: rlk}
	srv.ResetReports()
	return srv, nil
}

// ResetReports clears the running total.
func (s *Server) ResetReports() {
	s.total = pimsched.Report{Topology: s.Sched.Topo, Overlap: s.Sched.Overlap}
	s.runs = 0
}

// record folds one kernel run into the running total.
func (s *Server) record(rep *pimsched.Report) {
	s.total.Accumulate(rep)
	s.runs++
}

// plan returns *slot if it runs inputs operand vectors of length words,
// and otherwise the plan compile returns, which it keeps in *slot.
func plan(slot **kernels.Plan, inputs, length int, compile func() (*kernels.Plan, error)) (*kernels.Plan, error) {
	if *slot == nil || !(*slot).Fits(inputs, length) {
		p, err := compile()
		if err != nil {
			return nil, err
		}
		*slot = p
	}
	return *slot, nil
}

// sum returns the element-wise sum mod q of vecs, at least one, run on
// the sum plan.
func (s *Server) sum(vecs [][]uint32) ([]uint32, error) {
	par := s.Params
	p, err := plan(&s.sumPlan, len(vecs), len(vecs[0]), func() (*kernels.Plan, error) {
		return kernels.CompileVectorSum(s.Sched, len(vecs), len(vecs[0]), par.Q.W, par.Q.Q)
	})
	if err != nil {
		return nil, err
	}
	return s.run(p, vecs)
}

// run runs p over ins and records its report.
func (s *Server) run(p *kernels.Plan, ins [][]uint32) ([]uint32, error) {
	out, rep, err := p.Run(ins)
	if err != nil {
		return nil, err
	}
	s.record(rep)
	return out, nil
}

// Runs is how many kernel runs (scheduler plans) the total holds.
func (s *Server) Runs() int { return s.runs }

// Breakdown returns a copy of the running total: the sharded
// cycle/transfer/energy summary of every kernel run so far.
func (s *Server) Breakdown() *pimsched.Report {
	total := s.total
	return &total
}

// Add returns ct0 + ct1 computed by the PIM vector-addition kernel.
// Bit-exact against bfv.Evaluator.Add.
func (s *Server) Add(ct0, ct1 *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if len(ct0.Polys) != len(ct1.Polys) {
		return nil, errors.New("hepim: degree mismatch (relinearize first)")
	}
	par := s.Params
	n, w := par.N, par.Q.W
	a := make([]uint32, 0, len(ct0.Polys)*n*w)
	b := make([]uint32, 0, len(ct1.Polys)*n*w)
	for c := range ct0.Polys {
		a = append(a, ct0.Polys[c].C...)
		b = append(b, ct1.Polys[c].C...)
	}
	out, err := s.sum([][]uint32{a, b})
	if err != nil {
		return nil, err
	}
	return unflatten(out, len(ct0.Polys), n, w), nil
}

// Neg returns −ct. Negation is a single data-recoding pass (q − x per
// coefficient) the host performs while staging, like the paper's
// host-side scalar work; no kernel launch is charged.
func (s *Server) Neg(ct *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	par := s.Params
	out := &bfv.Ciphertext{Polys: make([]*poly.Poly, len(ct.Polys))}
	for i, p := range ct.Polys {
		np := poly.NewPoly(par.N, par.Q.W)
		poly.Neg(np, p, par.Q)
		out.Polys[i] = np
	}
	return out, nil
}

// AddPlain returns ct + Δ·m with the addition on the PIM system: the
// second operand is Δ·m followed by zero polynomials.
func (s *Server) AddPlain(ct *bfv.Ciphertext, pt *bfv.Plaintext) (*bfv.Ciphertext, error) {
	par := s.Params
	other := &bfv.Ciphertext{Polys: make([]*poly.Poly, len(ct.Polys))}
	other.Polys[0] = bfv.DeltaEncode(par, pt)
	for i := 1; i < len(other.Polys); i++ {
		other.Polys[i] = poly.NewPoly(par.N, par.Q.W)
	}
	return s.Add(ct, other)
}

// MulPlain is not implemented on the PIM server: it always fails.
func (s *Server) MulPlain(*bfv.Ciphertext, *bfv.Plaintext) (*bfv.Ciphertext, error) {
	return nil, errors.New("hepim: the PIM server does not implement MulPlain")
}

// Sum reduces many degree-1 ciphertexts in one kernel launch per
// component — the paper's arithmetic-mean aggregation.
func (s *Server) Sum(cts []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("hepim: empty sum")
	}
	par := s.Params
	n, w := par.N, par.Q.W
	comps := len(cts[0].Polys)
	for _, ct := range cts {
		if len(ct.Polys) != comps {
			return nil, errors.New("hepim: mixed-degree ciphertexts in sum")
		}
	}
	outPolys := make([]*poly.Poly, comps)
	vecs := make([][]uint32, len(cts))
	for c := 0; c < comps; c++ {
		for i, ct := range cts {
			vecs[i] = ct.Polys[c].C
		}
		out, err := s.sum(vecs)
		if err != nil {
			return nil, err
		}
		outPolys[c] = poly.NewPolyBacked(n, w, out)
	}
	return &bfv.Ciphertext{Polys: outPolys}, nil
}

// unflatten splits a flat limb vector into ciphertext polynomials that
// wrap it: a driver's output is allocated by the run that returns it, so
// the server owns flat and nothing else aliases it.
func unflatten(flat []uint32, comps, n, w int) *bfv.Ciphertext {
	polys := make([]*poly.Poly, comps)
	for c := 0; c < comps; c++ {
		lo, hi := c*n*w, (c+1)*n*w
		polys[c] = poly.NewPolyBacked(n, w, flat[lo:hi:hi])
	}
	return &bfv.Ciphertext{Polys: polys}
}

// Mul returns the relinearized product of two degree-1 ciphertexts with
// every polynomial multiplication executed on the PIM system:
//
//  1. tensor products a·b of the operands' centred residues modulo each
//     of the k primes below 2³¹ (4k one-limb pairs, one kernel launch);
//  2. host CRT of each tensor coefficient and t/q rescaling (linear);
//  3. relinearization digit products against the evaluation key (2·digits
//     pairs, one kernel launch) and the final additions (one sum launch
//     per output component, two launches).
//
// Bit-exact against bfv.Evaluator.Mul.
func (s *Server) Mul(ct0, ct1 *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, errors.New("hepim: Mul requires degree-1 ciphertexts")
	}
	if s.rlk == nil {
		return nil, errors.New("hepim: server has no relinearization key")
	}
	par, rd := s.Params, s.tensor
	a0, a1 := rd.Residues(ct0.Polys[0]), rd.Residues(ct0.Polys[1])
	b0, b1 := rd.Residues(ct1.Polys[0]), rd.Residues(ct1.Polys[1])
	length := 4 * len(a0)
	p, err := plan(&s.tensorPlan, 2, length, func() (*kernels.Plan, error) {
		return kernels.CompileVectorPolyMulMods(s.Sched, length, par.N, 1, slices.Repeat(rd.Moduli(), 4))
	})
	if err != nil {
		return nil, err
	}
	prods, err := s.run(p, [][]uint32{slices.Concat(a0, a0, a1, a1), slices.Concat(b0, b1, b0, b1)})
	if err != nil {
		return nil, err
	}

	// Host: d0 = a0·b0, d1 = a0·b1 + a1·b0, d2 = a1·b1, rescaled by t/q.
	kn := len(a0)
	d0 := rd.ScaleRound(prods[:kn])
	d1 := rd.ScaleRound(prods[kn:2*kn], prods[2*kn:3*kn])
	d2 := rd.ScaleRound(prods[3*kn:])

	// Relinearization on PIM over q: (d0, d1) + Σ digit_i(d2)·(K0_i, K1_i).
	return s.keySwitch(bfv.DecomposeForRelin(d2, par), s.rlk.K0, s.rlk.K1,
		[][]uint32{d0.C}, [][]uint32{d1.C})
}

// keySwitch returns (Σ acc0 + Σ_i d_i·k0_i, Σ acc1 + Σ_i d_i·k1_i)
// computed on the PIM system: the digit×key products interleaved as
// (d_i·k0_i, d_i·k1_i) pairs in one kernel launch, then one sum launch
// per output component, folding the even products onto acc0's vectors
// and the odd ones onto acc1's.
func (s *Server) keySwitch(digits, k0, k1 []*poly.Poly, acc0, acc1 [][]uint32) (*bfv.Ciphertext, error) {
	par := s.Params
	n, w := par.N, par.Q.W
	ra := make([]uint32, 0, 2*len(digits)*n*w)
	rb := make([]uint32, 0, 2*len(digits)*n*w)
	for i, d := range digits {
		ra = append(append(ra, d.C...), d.C...)
		rb = append(append(rb, k0[i].C...), k1[i].C...)
	}
	p, err := plan(&s.keyPlan, 2, len(ra), func() (*kernels.Plan, error) {
		return kernels.CompileVectorPolyMulMods(s.Sched, len(ra), n, w, slices.Repeat([]limb32.Nat{par.Q.Q}, 2*len(digits)))
	})
	if err != nil {
		return nil, err
	}
	prods, err := s.run(p, [][]uint32{ra, rb})
	if err != nil {
		return nil, err
	}

	for i := range digits {
		acc0 = append(acc0, prods[(2*i)*n*w:(2*i+1)*n*w])
		acc1 = append(acc1, prods[(2*i+1)*n*w:(2*i+2)*n*w])
	}
	out := &bfv.Ciphertext{Polys: make([]*poly.Poly, 2)}
	for c, vecs := range [][][]uint32{acc0, acc1} {
		flat, err := s.sum(vecs)
		if err != nil {
			return nil, err
		}
		out.Polys[c] = poly.NewPolyBacked(n, w, flat)
	}
	return out, nil
}

// ApplyGalois applies the automorphism X→X^g to a degree-1 ciphertext
// with the key-switching digit products executed on the PIM system (one
// kernel launch), bit-exact against bfv.Evaluator.ApplyGalois. Like the
// host evaluator, it uses the decompose-then-permute convention (c1's
// digits are computed first, then permuted — the ordering that lets a
// host hoist one decomposition across many Galois elements). The
// permutations themselves are data movement, not arithmetic; the host
// performs them as the paper's host performs scalar work.
func (s *Server) ApplyGalois(ct *bfv.Ciphertext, gk *bfv.GaloisKey) (*bfv.Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, errors.New("hepim: ApplyGalois requires a degree-1 ciphertext")
	}
	if gk == nil {
		return nil, errors.New("hepim: nil Galois key")
	}
	par := s.Params

	// Host: permute c0 and the digits of c1 (pure data movement).
	c0 := bfv.PermuteGaloisPoly(ct.Polys[0], gk.G, par)

	// PIM: permuted digit × key products folded into (c0, 0).
	digits := bfv.DecomposeForRelin(ct.Polys[1], par)
	for i, d := range digits {
		digits[i] = bfv.PermuteGaloisPoly(d, gk.G, par)
	}
	return s.keySwitch(digits, gk.K0, gk.K1, [][]uint32{c0.C}, nil)
}
