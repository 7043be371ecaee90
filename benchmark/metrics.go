package main

import (
	"fmt"
	"regexp"
	"sort"
	"time"
)

// metricDef is one row of BENCHMARK.json: the benchmark's own files
// are the source of truth and a test pins the JSON file to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics every workload reports with tracing off.
// The names are generic because each run prints all of them: README.md
// says what "operation", "light" and "heavy" mean on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "light_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heavy_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
}

// Units of the per-layer list. Simulated quantities carry their own
// unit so they are never mistaken for host time: they repeat exactly
// from run to run, host times do not.
const (
	unitUs    = "us"
	unitMs    = "ms"
	unitNs    = "ns"
	unitCount = "count"
	unitRatio = "ratio"
	unitSimMs = "sim_ms"
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// hebfv/serve, from a live serve_mixed window and its traced replay.
	for _, op := range opNames {
		add(unitMs, "lower", "serve.http."+op+"_p50_ms", "serve.http."+op+"_tail_ms")
		add(unitUs, "lower", "serve.http."+op+"_residual_us", "serve.coalesce."+op+"_wait_us")
	}
	add(unitRatio, "higher", "serve.coalesce.avg_batch")
	add(unitCount, "lower", "serve.rejections")
	add(unitUs, "lower", "serve.cache.acquire_us")
	// hebfv/serve, from a live serve_churn window and traced builds.
	add(unitCount, "higher", "serve.cache.hits")
	add(unitCount, "lower", "serve.cache.misses", "serve.cache.builds", "serve.cache.evictions")
	add(unitMs, "lower", "serve.cache.build_ms", "serve.http.onboard_p50_ms")
	// hebfv facade.
	add(unitUs, "lower", "hebfv.read_ciphertext_us", "hebfv.marshal_to_us", "hebfv.release_us",
		"hebfv.add_us", "hebfv.mul_us", "hebfv.square_us", "hebfv.rotate_rows_us", "hebfv.inner_sum_us",
		"hebfv.sum_us_per_ct", "hebfv.mul_many_us_per_ct", "hebfv.rotate_rows_many_us_per_step",
		"hebfv.encrypt_slots_us", "hebfv.decrypt_slots_us")
	add(unitMs, "lower", "hebfv.import_keys_ms", "hebfv.export_keys_ms",
		"hebfv.stats.mean_ms", "hebfv.stats.variance_ms", "hebfv.stats.linreg_ms", "hebfv.stats.dotprod_ms")
	add(unitRatio, "higher", "hebfv.pool.hit_rate")
	add(unitCount, "lower", "hebfv.pool.in_use_end")
	// internal/bfv.
	add(unitUs, "lower", "bfv.add_us", "bfv.mul_us", "bfv.mul_no_relin_us", "bfv.relinearize_us",
		"bfv.apply_galois_us", "bfv.hoist_us", "bfv.apply_galois_hoisted_us", "bfv.decrypt_us",
		"bfv.read_ciphertext_backed_us", "bfv.serialize_us")
	// internal/dcrt.
	add(unitUs, "lower", "dcrt.to_rns_centered_us", "dcrt.from_rns_us", "dcrt.scale_round_residues_us",
		"dcrt.digits_to_rns_us", "dcrt.mul_ntt_us", "dcrt.extend_residues_us")
	add(unitRatio, "higher", "dcrt.pool.mul_many_scaling")
	// internal/ntt.
	add(unitUs, "lower", "ntt.forward_lazy_us", "ntt.inverse_lazy_us", "ntt.pointwise_mul_us",
		"ntt.mul_add_pair128_us", "ntt.galois_acc_pair128_us")
	add(unitNs, "lower", "ntt.forward_ns_per_butterfly")
	add("GB/s", "higher", "ntt.pointwise_gb_per_s")
	// internal/polypool.
	add(unitNs, "lower", "polypool.get_put_ns")
	// Simulated PIM plane, host time.
	add(unitMs, "lower", "hepim.add_ms", "hepim.sum64_ms", "hepim.mul_ms",
		"kernels.vector_add_host_ms", "kernels.vector_sum_host_ms", "kernels.poly_mul_host_ms")
	add(unitNs, "lower", "pim.host_ns_per_sim_cycle")
	// Simulated PIM plane, simulated (modelled, unvalidated) figures.
	add(unitSimMs, "lower", "pimsched.copy_in_ms", "pimsched.kernel_ms", "pimsched.copy_out_ms",
		"pimsched.serial_ms", "pimsched.makespan_ms", "pim.sim_mean_ms", "pim.sim_mul_ms")
	add(unitRatio, "higher", "pimsched.overlap_gain")
	add(unitCount, "lower", "pimsched.launches", "pimsched.shards", "pimsched.bytes_in", "pimsched.bytes_out",
		"pimsched.retried", "pimsched.resharded")
	add("cycles", "lower", "kernels.vector_add_cycles", "kernels.poly_mul_cycles")
	// The harness itself.
	add("%", "lower", "trace.overhead_pct")
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs enforces the limits of the benchmark contract on the
// workload and metric lists.
func validateDefs(workloads []string, e2e, layer []metricDef) error {
	if len(workloads) < 2 || len(workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	if len(e2e) < 1 || len(e2e) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", len(e2e))
	}
	if len(layer) < 1 || len(layer) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", len(layer))
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := use(w); err != nil {
			return err
		}
	}
	hasSetup := false
	for i, m := range append(append([]metricDef{}, e2e...), layer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
		}
		if i < len(e2e) && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && i < len(e2e) {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("end-to-end metrics lack setup_s (s, lower)")
	}
	return nil
}

// quantile returns the q-quantile (nearest rank) of the samples; it
// sorts a copy.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func p50(samples []time.Duration) time.Duration { return quantile(samples, 0.5) }

// tailPercentile picks the highest of p99, p90 and p50 that still has
// at least ten samples beyond it, so a tail is never read off a handful
// of outliers.
func tailPercentile(n int) int {
	for _, pct := range []int{99, 90} {
		if n*(100-pct) >= 10*100 {
			return pct
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
