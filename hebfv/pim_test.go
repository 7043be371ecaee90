package hebfv

import "testing"

// twin builds two same-seed contexts — one on the reference backend,
// one on the backend under test — so identical call sequences consume
// identical randomness and results must match slot for slot.
func twin(t *testing.T, backend string, opts ...Option) (ref, got *Context) {
	t.Helper()
	mk := func(b string) *Context {
		all := append([]Option{
			WithInsecureToyParameters(),
			WithSeed(11),
			WithBackend(b),
		}, opts...)
		ctx, err := New(all...)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	return mk("dcrt-native"), mk(backend)
}

// TestPIMBreakdownOnPIMBackend checks the breakdown surface through
// the failover wrapper the "pim" backend runs under, and the topology
// option's plumbing.
func TestPIMBreakdownOnPIMBackend(t *testing.T) {
	ref, pimCtx := twin(t, "pim", WithPIMTopology(2, 4))
	a, err := pimCtx.EncryptValue(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pimCtx.EncryptValue(6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pimCtx.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	refA, _ := ref.EncryptValue(5)
	refB, _ := ref.EncryptValue(6)
	want, err := ref.Add(refA, refB)
	if err != nil {
		t.Fatal(err)
	}
	gv, _ := pimCtx.DecryptValue(got)
	wv, _ := ref.DecryptValue(want)
	if gv != wv {
		t.Fatalf("pim Add %d != host %d", gv, wv)
	}

	bd, ok := pimCtx.PIMBreakdown()
	if !ok {
		t.Fatal("PIMBreakdown not available on the pim backend")
	}
	if bd.Ranks != 2 || bd.DPUsPerRank != 4 {
		t.Fatalf("WithPIMTopology not plumbed: %+v", bd)
	}
	if bd.SerialSeconds < bd.MakespanSeconds {
		t.Fatalf("serial (no-overlap) time %g below the pipelined makespan %g", bd.SerialSeconds, bd.MakespanSeconds)
	}
	if bd.Launches == 0 || bd.KernelCycles <= 0 {
		t.Fatalf("empty breakdown after pim op: %+v", bd)
	}

	if _, ok := ref.PIMBreakdown(); ok {
		t.Fatal("host backend should not report a PIM breakdown")
	}
}

// TestWithPIMTopologyValidation pins the option's input checking.
func TestWithPIMTopologyValidation(t *testing.T) {
	if _, err := New(WithInsecureToyParameters(), WithPIMTopology(0, 4)); err == nil {
		t.Fatal("zero-rank topology accepted")
	}
	if _, err := New(WithInsecureToyParameters(), WithPIMTopology(2, -1)); err == nil {
		t.Fatal("negative DPU width accepted")
	}
}
