// Runtime CPU dispatch for the vectorized kernels.
//
// Every hot kernel in this package exists in (at least) two
// implementations: the portable scalar Go code — the oracle every other
// path is differentially tested against — and SIMD assembly selected at
// runtime from the host's detected instruction set (internal/cpufeat).
// The dispatch decision is a process-wide mode:
//
//   - "auto" (default): the best path the host supports — AVX-512 when
//     the F/DQ/BW/VL bundle is OS-enabled, else AVX2, else scalar.
//   - "off"/"scalar": force the scalar oracle everywhere.
//   - "avx2", "avx512": force one vector tier (error if unsupported),
//     so CI exercises each path deliberately rather than by host luck.
//
// The mode is settable programmatically (SetVectorMode) and via the
// HEPIM_VECTOR environment variable read at init. The scalar entry
// points (ForwardLazyScalar, PointwiseMulScalar, MulAddPair128Scalar,
// ...) bypass dispatch entirely, so differential tests compare paths
// in-process without mutating global state.
//
// Vector outputs are bit-identical to scalar outputs, including the
// lazy representatives: the assembly replicates the exact fold points
// and reduction algorithms of the scalar kernels, so a value that
// leaves ForwardLazy as 3q+7 on the scalar path leaves it as 3q+7 on
// every vector path too. Kernel coverage per tier is asymmetric where
// the hardware is: AVX2 (4 lanes, no mask registers) implements the
// butterfly passes and the Shoup pointwise kernels, while the
// Barrett-reduction kernels (pointwise-mul, mul-pair-add, the 128-bit
// accumulators) need the AVX-512 carry masks to pay off and stay
// scalar on AVX2-only hosts; so do the step-1 butterfly passes (the
// forward transform's last, the inverse's first). NEON is detected on
// arm64 but has no kernels yet; it reports as detected-but-scalar.
package ntt

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/cpufeat"
)

// Instruction-set tiers, ordered by preference.
const (
	isaScalar uint32 = iota
	isaAVX2
	isaAVX512
)

// VectorEnv is the environment variable consulted once at init for the
// initial dispatch mode (same values SetVectorMode accepts).
const VectorEnv = "HEPIM_VECTOR"

var (
	activeISA atomic.Uint32
	// envNote records an ignored/invalid HEPIM_VECTOR value: hebfvd
	// logs it at start-up and the vector tests fail on it.
	envNote string
)

func init() {
	mode := os.Getenv(VectorEnv)
	if mode == "" {
		mode = "auto"
	}
	if err := SetVectorMode(mode); err != nil {
		envNote = fmt.Sprintf("%s=%q ignored: %v", VectorEnv, mode, err)
		activeISA.Store(bestISA())
	}
}

// bestISA resolves "auto": the widest tier with both hardware support
// and an assembly implementation in this build.
func bestISA() uint32 {
	if !haveVectorKernels {
		return isaScalar
	}
	f := cpufeat.Host()
	switch {
	case f.AVX512:
		return isaAVX512
	case f.AVX2:
		return isaAVX2
	}
	return isaScalar
}

func currentISA() uint32 { return activeISA.Load() }

// SetVectorMode overrides the dispatch decision process-wide:
// "auto", "off" (or "scalar"), "avx2", "avx512". Forcing a tier the
// host cannot run returns an error and leaves the mode unchanged. Safe
// for concurrent use; in-flight kernels finish on the path they chose
// at entry.
func SetVectorMode(mode string) error {
	switch mode {
	case "auto", "":
		activeISA.Store(bestISA())
	case "off", "scalar":
		activeISA.Store(isaScalar)
	case "avx2":
		if !haveVectorKernels || !cpufeat.Host().AVX2 {
			return fmt.Errorf("ntt: avx2 kernels unavailable on this host (%s)", cpufeat.Host())
		}
		activeISA.Store(isaAVX2)
	case "avx512":
		if !haveVectorKernels || !cpufeat.Host().AVX512 {
			return fmt.Errorf("ntt: avx512 kernels unavailable on this host (%s)", cpufeat.Host())
		}
		activeISA.Store(isaAVX512)
	default:
		return fmt.Errorf("ntt: unknown vector mode %q (want auto|off|scalar|avx2|avx512)", mode)
	}
	return nil
}

// VectorMode reports the live dispatch mode as one of "scalar",
// "avx2", "avx512".
func VectorMode() string {
	switch currentISA() {
	case isaAVX512:
		return "avx512"
	case isaAVX2:
		return "avx2"
	}
	return "scalar"
}

// EnvNote reports a diagnostic when HEPIM_VECTOR held an unusable
// value at init ("" when the variable was absent or honored).
func EnvNote() string { return envNote }
