package pim

import (
	"sync"
	"testing"
)

// TestConcurrentTransferAccounting drives CopyToDPU/CopyFromDPU from
// many goroutines while launches are in flight on a disjoint DPU set —
// the shape of the pimsched async queues, where the next chunk stages
// onto idle ranks while the current chunk's kernels run. A DPU's MRAM
// itself is never shared between a copy and a running kernel; the
// contended state is the System-wide transfer counters. Run under
// -race this is the regression test for those counters being plain
// int64 fields.
func TestConcurrentTransferAccounting(t *testing.T) {
	const (
		nDPUs    = 16
		copyDPUs = 8 // DPUs 0..7 take concurrent copies; 8..15 run kernels
		words    = 256
		iters    = 50
	)
	sys := testSystem(t, nDPUs, 2)

	// Pre-stage the launch DPUs so their kernels have MRAM to touch.
	seedBytes := int64(0)
	launchIDs := make([]int, 0, nDPUs-copyDPUs)
	for d := copyDPUs; d < nDPUs; d++ {
		if err := sys.CopyToDPU(d, 0, make([]uint32, 2*words)); err != nil {
			t.Fatal(err)
		}
		seedBytes += int64(4 * 2 * words)
		launchIDs = append(launchIDs, d)
	}

	kernel := func(ctx *TaskletCtx) error {
		buf := make([]uint32, words)
		ctx.MRAMRead(0, buf)
		ctx.ChargeInstr(int64(len(buf)))
		ctx.MRAMWrite(words, buf)
		return nil
	}

	var wg sync.WaitGroup
	for d := 0; d < copyDPUs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			in := make([]uint32, words)
			out := make([]uint32, words)
			for i := range in {
				in[i] = uint32(d*words + i)
			}
			for it := 0; it < iters; it++ {
				if err := sys.CopyToDPU(d, 0, in); err != nil {
					t.Error(err)
					return
				}
				if err := sys.CopyFromDPU(d, 0, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(d)
	}
	// Launches in flight while the copies churn.
	for it := 0; it < 4; it++ {
		rep, errs := sys.LaunchOn(launchIDs, func(int) KernelFunc { return kernel })
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if rep.ActiveDPUs != len(launchIDs) {
			t.Fatalf("ActiveDPUs = %d, want %d", rep.ActiveDPUs, len(launchIDs))
		}
	}
	wg.Wait()

	wantIn := seedBytes + int64(4*words*copyDPUs*iters)
	wantOut := int64(4 * words * copyDPUs * iters)
	gotIn, gotOut := sys.TransferBytes()
	if gotIn != wantIn || gotOut != wantOut {
		t.Fatalf("transfer bytes = (%d, %d), want (%d, %d)", gotIn, gotOut, wantIn, wantOut)
	}
}
