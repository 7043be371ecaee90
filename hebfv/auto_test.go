package hebfv

import (
	"bytes"
	"testing"

	"repro/internal/bfv"
)

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

func encryptPair(t *testing.T, ctx *Context, base uint64) (as, bs []*Ciphertext) {
	t.Helper()
	for i := uint64(0); i < 3; i++ {
		a, err := ctx.EncryptValue(base + i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctx.EncryptValue(base + 10 + i)
		if err != nil {
			t.Fatal(err)
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

func decryptAll(t *testing.T, ctx *Context, cts []*Ciphertext) []uint64 {
	t.Helper()
	out := make([]uint64, len(cts))
	for i, ct := range cts {
		v, err := ctx.DecryptValue(ct)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// isDeferredProduct reports whether the handle still holds an
// NTT-resident product — nothing has forced it.
func isDeferredProduct(ct *Ciphertext) bool {
	_, ok := ct.value().(*bfv.ProductNTT)
	return ok
}

// lastDecision returns the auto context's most recent routing decision.
func lastDecision(t *testing.T, auto *Context) AutoDecision {
	t.Helper()
	st, ok := auto.AutoStats()
	if !ok || len(st.Decisions) == 0 {
		t.Fatal("no routing decision recorded on the auto backend")
	}
	return st.Decisions[len(st.Decisions)-1]
}

// TestAutoBackendBitIdentical drives enough batches through the "auto"
// backend to pass the probe phase on several op families and checks
// every result against a same-seed dcrt-native context. The MulMany →
// Sum dot product additionally pins deferral through the scheduler: a
// batch routed to the host stays NTT-resident until forced, one routed
// to the PIM plane arrives materialized, and both are bit-identical.
func TestAutoBackendBitIdentical(t *testing.T) {
	ref, auto := twin(t, "auto", WithPIMTopology(2, 4))
	batches, hostDots := 0, 0
	for round := uint64(0); round < 3; round++ {
		base := 100 * (round + 1)
		refA, refB := encryptPair(t, ref, base)
		autoA, autoB := encryptPair(t, auto, base)

		wantSums, err := ref.AddMany(refA, refB)
		if err != nil {
			t.Fatal(err)
		}
		gotSums, err := auto.AddMany(autoA, autoB)
		if err != nil {
			t.Fatal(err)
		}
		wantProds, err := ref.MulMany(refA, refB)
		if err != nil {
			t.Fatal(err)
		}
		gotProds, err := auto.MulMany(autoA, autoB)
		if err != nil {
			t.Fatal(err)
		}
		mulDec := lastDecision(t, auto)
		for i, p := range gotProds {
			if isDeferredProduct(p) != (mulDec.Target == "host") {
				t.Fatalf("round %d product %d: deferred=%v after a %s-routed Mul", round, i, isDeferredProduct(p), mulDec.Target)
			}
		}
		wantDot, err := ref.Sum(wantProds)
		if err != nil {
			t.Fatal(err)
		}
		gotDot, err := auto.Sum(gotProds)
		if err != nil {
			t.Fatal(err)
		}
		sumDec := lastDecision(t, auto)
		if mulDec.Op != "Mul" || sumDec.Op != "Sum" || mulDec.Items != 3 || sumDec.Items != 3 {
			t.Fatalf("round %d: decisions %+v, %+v do not describe the Mul and Sum batches", round, mulDec, sumDec)
		}
		if onHost := mulDec.Target == "host" && sumDec.Target == "host"; isDeferredProduct(gotDot) != onHost {
			t.Fatalf("round %d: dot product deferred=%v with Mul on %s and Sum on %s", round, isDeferredProduct(gotDot), mulDec.Target, sumDec.Target)
		} else if onHost {
			hostDots++
		}
		wantBlob, err := wantDot.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := gotDot.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("round %d: auto MulMany→Sum is not bit-identical to dcrt-native", round)
		}
		wantTot, err := ref.Sum(refA)
		if err != nil {
			t.Fatal(err)
		}
		gotTot, err := auto.Sum(autoA)
		if err != nil {
			t.Fatal(err)
		}
		batches += 4

		want := append(decryptAll(t, ref, wantSums), decryptAll(t, ref, wantProds)...)
		got := append(decryptAll(t, auto, gotSums), decryptAll(t, auto, gotProds)...)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d result %d: auto %d != dcrt-native %d", round, i, got[i], want[i])
			}
		}
		wt := decryptAll(t, ref, []*Ciphertext{wantTot})
		gt := decryptAll(t, auto, []*Ciphertext{gotTot})
		if gt[0] != wt[0] {
			t.Fatalf("round %d sum: auto %d != dcrt-native %d", round, gt[0], wt[0])
		}
	}
	if hostDots == 0 {
		t.Fatal("no round kept the whole dot product on the host: the deferred path went untested")
	}

	st, ok := auto.AutoStats()
	if !ok {
		t.Fatal("AutoStats not available on the auto backend")
	}
	if st.HostOps == 0 || st.PIMOps == 0 {
		t.Fatalf("scheduler never used both sides: %+v", st)
	}
	if len(st.Decisions) != batches || st.HostOps+st.PIMOps != batches {
		t.Fatalf("%d batches recorded %d decisions (%d host + %d pim)", batches, len(st.Decisions), st.HostOps, st.PIMOps)
	}
	reasons := map[string]bool{}
	for _, d := range st.Decisions {
		reasons[d.Reason] = true
		if d.Target != "host" && d.Target != "pim" {
			t.Fatalf("decision with unknown target: %+v", d)
		}
	}
	for _, want := range []string{"probe-host", "probe-pim", "modeled-cost"} {
		if !reasons[want] {
			t.Errorf("no %q decision recorded: %+v", want, st.Decisions)
		}
	}
	if st.Singletons != 0 {
		// Only batched ops ran through the engine above; encrypt/decrypt
		// never touch it.
		t.Errorf("unexpected singleton count %d", st.Singletons)
	}
}

// TestAutoStatsEstimatesConverge checks the decision surface carries
// both cost estimates once both sides have been probed.
func TestAutoStatsEstimatesConverge(t *testing.T) {
	_, auto := twin(t, "auto", WithPIMTopology(2, 4))
	as, bs := encryptPair(t, auto, 7)
	for i := 0; i < 3; i++ {
		if _, err := auto.AddMany(as, bs); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := auto.AutoStats()
	last := st.Decisions[len(st.Decisions)-1]
	if last.Reason != "modeled-cost" {
		t.Fatalf("third batch should be cost-routed, got %+v", last)
	}
	if last.HostSecondsPerItem <= 0 || last.PIMSecondsPerItem <= 0 {
		t.Fatalf("cost-routed decision missing estimates: %+v", last)
	}
}

// TestAutoPIMSurfaces checks the modeled-hardware reporting surfaces
// reach the auto backend's PIM side.
func TestAutoPIMSurfaces(t *testing.T) {
	_, auto := twin(t, "auto", WithPIMTopology(2, 4))
	as, bs := encryptPair(t, auto, 3)
	// Two batches: probe-host then probe-pim, so the PIM plane has run.
	for i := 0; i < 2; i++ {
		if _, err := auto.AddMany(as, bs); err != nil {
			t.Fatal(err)
		}
	}
	launches, modeled, ok := auto.PIMReport()
	if !ok || launches == 0 || modeled <= 0 {
		t.Fatalf("PIMReport not wired to the PIM side: %d launches, %gs, ok=%v", launches, modeled, ok)
	}
	bd, ok := auto.PIMBreakdown()
	if !ok {
		t.Fatal("PIMBreakdown not available on the auto backend")
	}
	if bd.Ranks != 2 || bd.DPUsPerRank != 4 || !bd.Overlap {
		t.Fatalf("breakdown topology not carried: %+v", bd)
	}
	if bd.Shards == 0 || bd.BytesIn <= 0 || bd.BytesOut <= 0 || bd.MakespanSeconds <= 0 {
		t.Fatalf("empty breakdown after PIM-routed batch: %+v", bd)
	}
	if _, ok := auto.PIMStats(); !ok {
		t.Fatal("PIMStats not available on the auto backend")
	}
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
	if _, ok := ref.AutoStats(); ok {
		t.Fatal("host backend should not report auto stats")
	}
}

// TestAutoFailsOverOnFault drives the auto backend's PIM side into a
// fault past the retry budget and checks the batch replays on the host
// and the PIM side retires.
func TestAutoFailsOverOnFault(t *testing.T) {
	_, auto := twin(t, "auto",
		WithPIMTopology(2, 4),
		WithPIMFaultInjection(1, 1.0, 0, 0)) // every launch fails transiently
	as, bs := encryptPair(t, auto, 9)
	// Batch 1 probes the host; batch 2 probes PIM and hits the fault.
	for i := 0; i < 3; i++ {
		got, err := auto.AddMany(as, bs)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(got) != len(as) {
			t.Fatalf("batch %d: %d results", i, len(got))
		}
	}
	st, _ := auto.AutoStats()
	if !st.PIMOffline {
		t.Fatalf("PIM side not retired after exhausted fault budget: %+v", st)
	}
	reasons := map[string]bool{}
	for _, d := range st.Decisions {
		reasons[d.Reason] = true
	}
	if !reasons["pim-failover"] || !reasons["pim-offline"] {
		t.Fatalf("failover decisions missing: %+v", st.Decisions)
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
