package repro

// One benchmark per table/figure of the paper's evaluation (§4). Each
// benchmark measures the real work this repository can execute — the
// functional PIM-simulator kernels (which the paper-scale model
// extrapolates from) — and additionally reports the modeled paper-scale
// execution times of all four platforms as custom metrics, so
// `go test -bench=.` regenerates the paper's series:
//
//	model-pim-ms, model-cpu-ms, model-seal-ms, model-gpu-ms, speedup-vs-cpu
//
// Run a single figure with e.g. `go test -bench=Fig1a -benchmem`.

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfv"
	"repro/internal/hepim"
	"repro/internal/perfmodel"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
	"repro/internal/sampling"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func getSuite(b *testing.B) *bench.Suite {
	suiteOnce.Do(func() { suite, suiteErr = bench.NewSuite() })
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func mod109(b *testing.B) *poly.Modulus {
	q, _ := new(big.Int).SetString("649037107316853453566312041152481", 10)
	m, err := poly.NewModulus(q)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func randVec(src *sampling.Source, coeffs int, mod *poly.Modulus) []uint32 {
	out := make([]uint32, coeffs*mod.W)
	src.UniformCoeffs(out, mod.Q)
	return out
}

func reportRow(b *testing.B, row benchRow) {
	b.ReportMetric(row.cpu*1e3, "model-cpu-ms")
	b.ReportMetric(row.pim*1e3, "model-pim-ms")
	b.ReportMetric(row.seal*1e3, "model-seal-ms")
	b.ReportMetric(row.gpu*1e3, "model-gpu-ms")
	b.ReportMetric(row.cpu/row.pim, "speedup-vs-cpu")
}

type benchRow struct{ cpu, pim, seal, gpu float64 }

// newSched builds a fresh simulated system under cfg and the scheduler
// over all of its DPUs.
func newSched(b *testing.B, cfg pim.SystemConfig) *pimsched.Scheduler {
	b.Helper()
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := pimsched.New(sys, pimsched.FitTopology(cfg.NumDPUs), false)
	if err != nil {
		b.Fatal(err)
	}
	return sched
}

// BenchmarkFig1aVectorAdd: Figure 1(a) — 128-bit ciphertext vector
// addition. The measured loop runs the real DPU addition kernel on a
// scaled-down shard (256 ciphertext polynomials on 8 DPUs); the reported
// model-* metrics are the paper-scale times.
func BenchmarkFig1aVectorAdd(b *testing.B) {
	s := getSuite(b)
	mod := mod109(b)
	src := sampling.NewSourceFromUint64(1)
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 8
	for _, elems := range []int{20480, 40960, 81920, 163840, 327680} {
		b.Run(fmt.Sprintf("cts=%d", elems), func(b *testing.B) {
			v := perfmodel.VectorSpec{Elems: elems, N: 4096, W: 4}
			row := benchRow{
				cpu:  s.CPU.VectorAddSeconds(v),
				pim:  s.PIM.VectorAddSeconds(v),
				seal: s.SEAL.VectorAddSeconds(v),
				gpu:  s.GPU.VectorAddSeconds(v),
			}
			coeffs := 256 * 64 // scaled-down functional shard
			a := randVec(src, coeffs, mod)
			bb := randVec(src, coeffs, mod)
			sched := newSched(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := kernels.RunVectorAddSched(sched, a, bb, mod.W, mod.Q); err != nil {
					b.Fatal(err)
				}
			}
			reportRow(b, row)
		})
	}
}

// BenchmarkFig1bVectorMul: Figure 1(b) — 128-bit ciphertext vector
// multiplication. Functional shard: 2 polynomial pairs at n=64.
func BenchmarkFig1bVectorMul(b *testing.B) {
	s := getSuite(b)
	mod := mod109(b)
	src := sampling.NewSourceFromUint64(2)
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 2
	for _, elems := range []int{5120, 10240, 20480, 40960, 81920} {
		b.Run(fmt.Sprintf("cts=%d", elems), func(b *testing.B) {
			v := perfmodel.VectorSpec{Elems: elems, N: 4096, W: 4}
			row := benchRow{
				cpu:  s.CPU.VectorMulSeconds(v),
				pim:  s.PIM.VectorMulSeconds(v),
				seal: s.SEAL.VectorMulSeconds(v),
				gpu:  s.GPU.VectorMulSeconds(v),
			}
			n := 64
			a := randVec(src, 2*n, mod)
			bb := randVec(src, 2*n, mod)
			sched := newSched(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := kernels.RunVectorPolyMulSched(sched, a, bb, n, mod.W, mod.Q); err != nil {
					b.Fatal(err)
				}
			}
			reportRow(b, row)
		})
	}
}

func statsBench(b *testing.B, f func(perfmodel.Model, perfmodel.StatsSpec) float64, spec perfmodel.StatsSpec) {
	s := getSuite(b)
	row := benchRow{
		cpu:  f(s.CPU, spec),
		pim:  f(s.PIM, spec),
		seal: f(s.SEAL, spec),
		gpu:  f(s.GPU, spec),
	}
	// Functional core: the same workload at toy scale on the PIM server.
	params := toyStatsParams(b)
	src := sampling.NewSourceFromUint64(3)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	enc := bfv.NewEncryptor(params, pk, src)
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 4
	srv, err := hepim.NewServerWithTopology(cfg, params, rlk, pimsched.FitTopology(cfg.NumDPUs))
	if err != nil {
		b.Fatal(err)
	}
	cts := make([]*bfv.Ciphertext, 8)
	for i := range cts {
		ct, err := enc.EncryptValue(uint64(i % 5))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	_ = sk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Sum(cts); err != nil {
			b.Fatal(err)
		}
	}
	reportRow(b, row)
}

func toyStatsParams(b *testing.B) *bfv.Parameters {
	q, _ := new(big.Int).SetString("1152921504606846883", 10)
	p, err := bfv.NewParameters(64, q, 257, 20)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFig2aMean: Figure 2(a) — arithmetic mean across user counts.
func BenchmarkFig2aMean(b *testing.B) {
	for _, u := range []int{640, 1280, 2560} {
		b.Run(fmt.Sprintf("users=%d", u), func(b *testing.B) {
			statsBench(b, func(m perfmodel.Model, s perfmodel.StatsSpec) float64 {
				return m.MeanSeconds(s)
			}, perfmodel.PaperStatsSpec(u))
		})
	}
}

// BenchmarkFig2bVariance: Figure 2(b) — variance across user counts.
func BenchmarkFig2bVariance(b *testing.B) {
	for _, u := range []int{640, 1280, 2560} {
		b.Run(fmt.Sprintf("users=%d", u), func(b *testing.B) {
			statsBench(b, func(m perfmodel.Model, s perfmodel.StatsSpec) float64 {
				return m.VarianceSeconds(s)
			}, perfmodel.PaperStatsSpec(u))
		})
	}
}

// BenchmarkFig2cLinReg: Figure 2(c) — linear regression at 32 and 64
// ciphertexts per user.
func BenchmarkFig2cLinReg(b *testing.B) {
	for _, cts := range []int{32, 64} {
		b.Run(fmt.Sprintf("cts=%d", cts), func(b *testing.B) {
			spec := perfmodel.PaperStatsSpec(640)
			spec.CtsPerUser = cts
			statsBench(b, func(m perfmodel.Model, s perfmodel.StatsSpec) float64 {
				return m.LinRegSeconds(s)
			}, spec)
		})
	}
}

// BenchmarkWidthSweep: §4.2 text — 32/64/128-bit add and mul.
func BenchmarkWidthSweep(b *testing.B) {
	s := getSuite(b)
	nFor := map[int]int{1: 1024, 2: 2048, 4: 4096}
	for _, w := range []int{1, 2, 4} {
		for _, op := range []string{"add", "mul"} {
			b.Run(fmt.Sprintf("bits=%d/%s", 32*w, op), func(b *testing.B) {
				var v perfmodel.VectorSpec
				var row benchRow
				if op == "add" {
					v = perfmodel.VectorSpec{Elems: 20480, N: nFor[w], W: w}
					row = benchRow{s.CPU.VectorAddSeconds(v), s.PIM.VectorAddSeconds(v),
						s.SEAL.VectorAddSeconds(v), s.GPU.VectorAddSeconds(v)}
				} else {
					v = perfmodel.VectorSpec{Elems: 5120, N: nFor[w], W: w}
					row = benchRow{s.CPU.VectorMulSeconds(v), s.PIM.VectorMulSeconds(v),
						s.SEAL.VectorMulSeconds(v), s.GPU.VectorMulSeconds(v)}
				}
				for i := 0; i < b.N; i++ {
					_ = s.PIM.MulCyclesPerPair(w, nFor[w])
				}
				reportRow(b, row)
			})
		}
	}
}

// BenchmarkTaskletSweep: §4.2 observation 1 — kernel cycles vs tasklet
// count on one simulated DPU (saturation at ≥ 11).
func BenchmarkTaskletSweep(b *testing.B) {
	mod := mod109(b)
	src := sampling.NewSourceFromUint64(4)
	a := randVec(src, 8192, mod)
	bb := randVec(src, 8192, mod)
	for _, tk := range []int{1, 2, 4, 8, 11, 16, 24} {
		b.Run(fmt.Sprintf("tasklets=%d", tk), func(b *testing.B) {
			cfg := pim.DefaultConfig()
			cfg.NumDPUs = 1
			cfg.Tasklets = tk
			sched := newSched(b, cfg)
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := kernels.RunVectorAddSched(sched, a, bb, mod.W, mod.Q)
				if err != nil {
					b.Fatal(err)
				}
				cycles = rep.KernelCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(cycles)/425e3, "sim-ms")
		})
	}
}

// BenchmarkAblationNativeMul32: Key Takeaway 2 — multiplication with the
// hypothetical native 32-bit multiplier vs the shift-and-add baseline.
func BenchmarkAblationNativeMul32(b *testing.B) {
	mod := mod109(b)
	src := sampling.NewSourceFromUint64(5)
	n := 64
	a := randVec(src, n, mod)
	bb := randVec(src, n, mod)
	for _, variant := range []struct {
		name string
		cost *pim.CostModel
	}{
		{"shift-and-add", pim.DefaultCostModel()},
		{"native-mul32", pim.NativeMul32CostModel()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := pim.DefaultConfig()
			cfg.NumDPUs = 1
			cfg.Cost = variant.cost
			sched := newSched(b, cfg)
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := kernels.RunVectorPolyMulSched(sched, a, bb, n, mod.W, mod.Q)
				if err != nil {
					b.Fatal(err)
				}
				cycles = rep.KernelCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkHostEvaluator measures the real host BFV evaluator (toy ring):
// the functional cost of Add and Mul this library delivers.
func BenchmarkHostEvaluator(b *testing.B) {
	params := bfv.ParamsToy()
	src := sampling.NewSourceFromUint64(6)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, src)
	eval := bfv.NewEvaluator(params, rlk)
	ct1, _ := enc.EncryptValue(3)
	ct2, _ := enc.EncryptValue(5)

	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.Add(ct1, ct2)
		}
	})
	b.Run("Mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Mul(ct1, ct2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
