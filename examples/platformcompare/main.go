// Platform comparison: walk the paper's §4.2 microbenchmarks across all
// four platform models (CPU, PIM, CPU-SEAL, GPU) and print who wins
// where — the paper's two key takeaways in one run:
//
//   - addition: the PIM system's native 32-bit adders and 2,524-core
//     parallelism beat everything (Key Takeaway 1);
//
//   - multiplication: the missing 32-bit multiplier lets the GPU and the
//     NTT-based SEAL overtake PIM (Key Takeaway 2).
//
// It then runs the sharded execution plane (internal/pimsched)
// across a DPU-count sweep and prints how batched ciphertext addition
// scales from 1 DPU to the paper machine's full 2,524-DPU footprint:
// metered kernel cycles, host↔DPU transfer bytes, the pipelined
// makespan, and the speedup over the single-DPU point.
//
//	go run ./examples/platformcompare
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/perfmodel"
)

func main() {
	suite, err := bench.NewSuite()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(bench.Render(suite.Fig1a()))
	fmt.Println(bench.Render(suite.Fig1b()))

	// Key Takeaway 1 & 2 in numbers:
	va := perfmodel.VectorSpec{Elems: 81920, N: 4096, W: 4}
	vm := perfmodel.VectorSpec{Elems: 20480, N: 4096, W: 4}
	fmt.Printf("Key Takeaway 1: 128-bit addition of %d ciphertexts — PIM is %.0fx faster than the CPU\n",
		va.Elems, suite.CPU.VectorAddSeconds(va)/suite.PIM.VectorAddSeconds(va))
	fmt.Printf("Key Takeaway 2: 128-bit multiplication of %d ciphertexts — the GPU is %.1fx faster than PIM\n",
		vm.Elems, suite.PIM.VectorMulSeconds(vm)/suite.GPU.VectorMulSeconds(vm))

	abl, err := suite.Ablations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(bench.Render(abl))

	// DPU scaling on the sharded execution plane: the same
	// batched addition, metered end to end (kernel cycles + modeled
	// host↔DPU transfers with copy-in/launch overlap) as the topology
	// grows from one DPU to the full machine.
	_, sweep, err := bench.MeasurePIMScale(nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("DPU scaling, batched ciphertext addition (pipelined makespan):")
	fmt.Printf("%6s %6s %8s %14s %12s %12s %10s\n",
		"n", "dpus", "ranks", "kernel cycles", "xfer bytes", "makespan", "speedup")
	base := map[int]float64{} // n -> 1-DPU pipelined makespan
	for _, p := range sweep {
		if p.DPUs == 1 {
			base[p.N] = p.OverlapSeconds
		}
	}
	for _, p := range sweep {
		fmt.Printf("%6d %6d %8d %14d %12d %11.3fms %9.1fx\n",
			p.N, p.DPUs, p.Ranks, p.KernelCycles, p.BytesIn+p.BytesOut,
			p.OverlapSeconds*1e3, base[p.N]/p.OverlapSeconds)
	}
}
