package perfmodel

import (
	"math"
	"testing"

	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/sampling"
)

func newPIM(t *testing.T) *PIMModel {
	t.Helper()
	m, err := NewPIMModel(pim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func inBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.2f, want within [%.1f, %.1f]", name, got, lo, hi)
	}
}

// TestPIMAnalyticMatchesSimulator validates the extrapolation: the
// analytic cost function must reproduce the simulator's cycle counts at a
// size NOT used for fitting.
func TestPIMAnalyticMatchesSimulator(t *testing.T) {
	m := newPIM(t)
	sched := func() *pimsched.Scheduler {
		s, err := pimsched.OneDPU(pim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, w := range []int{1, 2, 4} {
		mod, err := paperModulusForWidth(w)
		if err != nil {
			t.Fatal(err)
		}
		src := sampling.NewSourceFromUint64(uint64(2000 + w))
		randVec := func(coeffs int) []uint32 {
			out := make([]uint32, coeffs*w)
			src.UniformCoeffs(out, mod.Q)
			return out
		}

		// Addition at 6000 coefficients (fit used 4096 and 8192).
		a, b := randVec(6000), randVec(6000)
		_, rep, err := kernels.RunVectorAddSched(sched(), a, b, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		predicted := m.AddCyclesForCoeffs(w, 6000)
		if rel := math.Abs(predicted-float64(rep.KernelCycles)) / float64(rep.KernelCycles); rel > 0.02 {
			t.Errorf("w=%d add: predicted %.0f vs simulated %d (%.1f%% off)",
				w, predicted, rep.KernelCycles, rel*100)
		}

		// Multiplication at n=256 (fit used 32, 64, 128).
		n := 256
		a2, b2 := randVec(n), randVec(n)
		_, rep2, err := kernels.RunVectorPolyMulSched(sched(), a2, b2, n, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		predicted2 := m.MulCyclesPerPair(w, n)
		if rel := math.Abs(predicted2-float64(rep2.KernelCycles)) / float64(rep2.KernelCycles); rel > 0.03 {
			t.Errorf("w=%d mul n=256: predicted %.0f vs simulated %d (%.1f%% off)",
				w, predicted2, rep2.KernelCycles, rel*100)
		}
	}
}

func TestFitQuadraticExact(t *testing.T) {
	// y = 2x² + 3x + 5
	q := fitQuadratic([3]float64{1, 2, 4}, [3]float64{10, 19, 49})
	for i, want := range []float64{2, 3, 5} {
		if math.Abs(q[i]-want) > 1e-9 {
			t.Errorf("coef %d = %g, want %g", i, q[i], want)
		}
	}
}

// --- Figure 1(a): 128-bit ciphertext vector addition -------------------

func TestFig1aBands(t *testing.T) {
	pimM, cpu, seal, gpu := newPIM(t), NewCPUModel(), NewSEALModel(), NewGPUModel()
	for _, elems := range []int{20480, 40960, 81920, 163840, 327680} {
		v := VectorSpec{Elems: elems, N: 4096, W: 4}
		tp := pimM.VectorAddSeconds(v)
		// Abstract: "50–100× speedup ... over the CPU"; §4.2: 20–150×.
		inBand(t, "fig1a PIM/CPU", cpu.VectorAddSeconds(v)/tp, 50, 100)
		// §4.2: PIM outperforms CPU-SEAL by 35–80×.
		inBand(t, "fig1a PIM/SEAL", seal.VectorAddSeconds(v)/tp, 35, 80)
		// Abstract: 2–15× over the GPU.
		inBand(t, "fig1a PIM/GPU", gpu.VectorAddSeconds(v)/tp, 2, 15)
	}
}

// --- Figure 1(b): 128-bit ciphertext vector multiplication -------------

func TestFig1bBands(t *testing.T) {
	pimM, cpu, seal, gpu := newPIM(t), NewCPUModel(), NewSEALModel(), NewGPUModel()
	for _, elems := range []int{5120, 10240, 20480, 40960, 81920} {
		v := VectorSpec{Elems: elems, N: 4096, W: 4}
		tp := pimM.VectorMulSeconds(v)
		// §4.2 / Fig 1(b) annotations: PIM beats CPU 40–50× (annotations
		// show 21–42; the model is flat at ~41).
		inBand(t, "fig1b PIM/CPU", cpu.VectorMulSeconds(v)/tp, 35, 50)
		// "2–4× slower than CPU-SEAL for 64 and 128 bits".
		inBand(t, "fig1b SEAL advantage", tp/seal.VectorMulSeconds(v), 2, 4)
		// "12–15× slower than GPU".
		inBand(t, "fig1b GPU advantage", tp/gpu.VectorMulSeconds(v), 10, 16)
	}
}

// --- §4.2 width sweep ---------------------------------------------------

func TestWidthSweepShape(t *testing.T) {
	pimM, cpu, seal := newPIM(t), NewCPUModel(), NewSEALModel()
	nFor := map[int]int{1: 1024, 2: 2048, 4: 4096}
	for _, w := range []int{1, 2, 4} {
		va := VectorSpec{Elems: 20480, N: nFor[w], W: w}
		vm := VectorSpec{Elems: 5120, N: nFor[w], W: w}
		// Addition: PIM wins at every width (§4.2: 20–150× over CPU).
		inBand(t, "width add PIM/CPU", cpu.VectorAddSeconds(va)/pimM.VectorAddSeconds(va), 20, 150)
		// Multiplication vs CPU: 40–50× at every width.
		inBand(t, "width mul PIM/CPU", cpu.VectorMulSeconds(vm)/pimM.VectorMulSeconds(vm), 35, 55)
		ratioSEAL := seal.VectorMulSeconds(vm) / pimM.VectorMulSeconds(vm)
		if w == 1 && ratioSEAL < 1.5 {
			// "PIM outperforms CPU-SEAL for 32 bits by 2×".
			t.Errorf("w=1 mul: PIM should beat SEAL ~2x, got %.2fx", ratioSEAL)
		}
		if w == 4 && ratioSEAL > 0.5 {
			// SEAL must clearly win at 128 bits (NTT vs schoolbook).
			t.Errorf("w=4 mul: SEAL should beat PIM clearly, got PIM/SEAL=%.2f", 1/ratioSEAL)
		}
	}
}

// --- Figure 2(a): arithmetic mean ---------------------------------------

func TestFig2aBands(t *testing.T) {
	pimM, cpu, seal, gpu := newPIM(t), NewCPUModel(), NewSEALModel(), NewGPUModel()
	// Paper annotations: 25.2×, 50.6×, 101.2× over CPU; 11–50× over SEAL;
	// 9–34× over GPU. Model tolerance: ±40% of the annotation.
	wantCPU := map[int]float64{640: 25.2, 1280: 50.6, 2560: 101.2}
	for _, u := range []int{640, 1280, 2560} {
		s := PaperStatsSpec(u)
		tp := pimM.MeanSeconds(s)
		got := cpu.MeanSeconds(s) / tp
		inBand(t, "fig2a PIM/CPU", got, wantCPU[u]*0.6, wantCPU[u]*1.4)
		inBand(t, "fig2a PIM/SEAL", seal.MeanSeconds(s)/tp, 8, 60)
		inBand(t, "fig2a PIM/GPU", gpu.MeanSeconds(s)/tp, 6, 34)
	}
}

// TestFig2PIMTimeConstant asserts the paper's observation 4: PIM execution
// time stays (nearly) constant as users grow, because utilization scales
// with the user count.
func TestFig2PIMTimeConstant(t *testing.T) {
	pimM := newPIM(t)
	base := pimM.MeanSeconds(PaperStatsSpec(640))
	for _, u := range []int{1280, 2560} {
		tt := pimM.MeanSeconds(PaperStatsSpec(u))
		if tt > base*1.15 {
			t.Errorf("mean PIM time grew from %.4gs to %.4gs at %d users", base, tt, u)
		}
	}
	vbase := pimM.VarianceSeconds(PaperStatsSpec(640))
	for _, u := range []int{1280, 2560} {
		tt := pimM.VarianceSeconds(PaperStatsSpec(u))
		if tt > vbase*1.15 {
			t.Errorf("variance PIM time grew from %.4gs to %.4gs at %d users", vbase, tt, u)
		}
	}
	// CPU, by contrast, must scale linearly (double users → double time).
	cpu := NewCPUModel()
	c1, c2 := cpu.MeanSeconds(PaperStatsSpec(640)), cpu.MeanSeconds(PaperStatsSpec(1280))
	if r := c2 / c1; r < 1.9 || r > 2.1 {
		t.Errorf("CPU mean should scale linearly with users, got ratio %.2f", r)
	}
}

// --- Figure 2(b): variance ----------------------------------------------

func TestFig2bBands(t *testing.T) {
	pimM, cpu, seal, gpu := newPIM(t), NewCPUModel(), NewSEALModel(), NewGPUModel()
	// Paper: PIM over CPU 6–25× (growing with users); CPU-SEAL 2–10×
	// faster; GPU 13–50× faster. Our consistent-pipeline model runs
	// ~1.7× above the paper's PIM/CPU points (internal/bench
	// TestGoldenSpeedups pins ours); the bands assert ordering plus the
	// doubling shape.
	prev := 0.0
	for _, u := range []int{640, 1280, 2560} {
		s := PaperStatsSpec(u)
		tp := pimM.VarianceSeconds(s)
		cpuRatio := cpu.VarianceSeconds(s) / tp
		inBand(t, "fig2b PIM/CPU", cpuRatio, 5, 50)
		if cpuRatio < prev*1.8 {
			t.Errorf("fig2b PIM/CPU should ~double with users: %.1f after %.1f", cpuRatio, prev)
		}
		prev = cpuRatio
		inBand(t, "fig2b SEAL advantage", tp/seal.VarianceSeconds(s), 2, 10)
		inBand(t, "fig2b GPU advantage", tp/gpu.VarianceSeconds(s), 10, 50)
	}
}

// --- Figure 2(c): linear regression --------------------------------------

func TestFig2cBands(t *testing.T) {
	pimM, cpu, seal, gpu := newPIM(t), NewCPUModel(), NewSEALModel(), NewGPUModel()
	for _, cts := range []int{32, 64} {
		s := PaperStatsSpec(640)
		s.CtsPerUser = cts
		tp := pimM.LinRegSeconds(s)
		// Paper: 7.4× (32 cts) / 6.5× (64 cts) over CPU; we allow ~2×.
		inBand(t, "fig2c PIM/CPU", cpu.LinRegSeconds(s)/tp, 4, 16)
		// Paper: CPU-SEAL 11.4× faster at 64 cts.
		inBand(t, "fig2c SEAL advantage", tp/seal.LinRegSeconds(s), 5, 16)
		// Paper: GPU 54.9× faster at 64 cts.
		inBand(t, "fig2c GPU advantage", tp/gpu.LinRegSeconds(s), 25, 80)
	}
}

// --- Ablation: native 32-bit multiplier (Key Takeaway 2) ----------------

func TestNativeMulAblation(t *testing.T) {
	cfg := pim.DefaultConfig()
	base, err := NewPIMModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgNative := cfg
	cfgNative.Cost = pim.NativeMul32CostModel()
	native, err := NewPIMModel(cfgNative)
	if err != nil {
		t.Fatal(err)
	}
	v := VectorSpec{Elems: 5120, N: 4096, W: 4}
	tBase, tNative := base.VectorMulSeconds(v), native.VectorMulSeconds(v)
	improvement := tBase / tNative
	if improvement < 2 {
		t.Errorf("native 32-bit multiply improved mul only %.2fx; expected >2x", improvement)
	}
	// Addition must be essentially unaffected (no multiplies).
	va := VectorSpec{Elems: 20480, N: 4096, W: 4}
	aBase, aNative := base.VectorAddSeconds(va), native.VectorAddSeconds(va)
	if math.Abs(aBase-aNative)/aBase > 0.01 {
		t.Errorf("native multiplier changed addition time: %.4g vs %.4g", aBase, aNative)
	}
	// And it must close most of the GPU gap (Takeaway 2: "could
	// potentially outperform CPUs and GPUs").
	gpu := NewGPUModel()
	gapBase := tBase / gpu.VectorMulSeconds(v)
	gapNative := tNative / gpu.VectorMulSeconds(v)
	if gapNative >= gapBase/2 {
		t.Errorf("native multiplier should at least halve the GPU gap: %.1fx -> %.1fx", gapBase, gapNative)
	}
}

func TestVectorSpecCheck(t *testing.T) {
	v := VectorSpec{Elems: 10, N: 4, W: 2}
	if v.Coeffs() != 40 || v.Bytes() != 320 {
		t.Errorf("Coeffs/Bytes = %d/%d", v.Coeffs(), v.Bytes())
	}
}
