package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// validationEntry is one pinned cell of the checked-in paper-validation
// table: exact metered integers (cycles, bytes), modeled seconds with a
// relative tolerance, and the paper's reported numbers for the matching
// regime as context.
type validationEntry struct {
	N                 int     `json:"n"`
	DPUs              int     `json:"dpus"`
	KernelCycles      int64   `json:"kernel_cycles"`
	BytesIn           int64   `json:"bytes_in"`
	BytesOut          int64   `json:"bytes_out"`
	OverlapSeconds    float64 `json:"overlap_seconds"`
	SerialSeconds     float64 `json:"serial_seconds"`
	MinOverlapSpeedup float64 `json:"min_overlap_speedup"`
	TolRel            float64 `json:"tol_rel"`
	PaperContext      string  `json:"paper_context"`
}

type validationTable struct {
	Schema  string            `json:"schema"`
	CtPairs int               `json:"ct_pairs"`
	Note    string            `json:"note"`
	Entries []validationEntry `json:"entries"`
}

func loadValidationTable(t *testing.T) validationTable {
	t.Helper()
	data, err := os.ReadFile("testdata/paper_validation.json")
	if err != nil {
		t.Fatal(err)
	}
	var tab validationTable
	if err := json.Unmarshal(data, &tab); err != nil {
		t.Fatal(err)
	}
	if tab.Schema != "repro/pim-scale-validation/v1" {
		t.Fatalf("unexpected validation schema %q", tab.Schema)
	}
	if len(tab.Entries) == 0 {
		t.Fatal("empty validation table")
	}
	return tab
}

func within(got, want, tolRel float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= tolRel*math.Abs(want)
}

// TestPaperValidation regenerates the validation table's sweep points
// on the async execution plane and gates the metered numbers against
// the checked-in expectations: cycle and byte counts exactly (the
// simulator is deterministic), modeled seconds within each entry's
// tolerance, and the overlap speedup at least the pinned floor.
func TestPaperValidation(t *testing.T) {
	tab := loadValidationTable(t)
	dpuSet := map[int]bool{}
	var dpus []int
	for _, e := range tab.Entries {
		if !dpuSet[e.DPUs] {
			dpuSet[e.DPUs] = true
			dpus = append(dpus, e.DPUs)
		}
	}
	_, sweep, err := MeasurePIMScale(dpus, tab.CtPairs)
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]PIMScalePoint{}
	for _, p := range sweep {
		points[fmt.Sprintf("%d/%d", p.N, p.DPUs)] = p
	}
	for _, e := range tab.Entries {
		key := fmt.Sprintf("%d/%d", e.N, e.DPUs)
		p, ok := points[key]
		if !ok {
			t.Errorf("%s: sweep produced no point", key)
			continue
		}
		if !p.BitIdentical {
			t.Errorf("%s: results not bit-identical to the host oracle", key)
		}
		if p.KernelCycles != e.KernelCycles {
			t.Errorf("%s: kernel cycles %d, validation table expects %d", key, p.KernelCycles, e.KernelCycles)
		}
		if p.BytesIn != e.BytesIn || p.BytesOut != e.BytesOut {
			t.Errorf("%s: transfer bytes %d/%d, validation table expects %d/%d",
				key, p.BytesIn, p.BytesOut, e.BytesIn, e.BytesOut)
		}
		if !within(p.OverlapSeconds, e.OverlapSeconds, e.TolRel) {
			t.Errorf("%s: pipelined makespan %g outside %g ± %.0f%%",
				key, p.OverlapSeconds, e.OverlapSeconds, 100*e.TolRel)
		}
		if !within(p.SerialSeconds, e.SerialSeconds, e.TolRel) {
			t.Errorf("%s: serial makespan %g outside %g ± %.0f%%",
				key, p.SerialSeconds, e.SerialSeconds, 100*e.TolRel)
		}
		if p.OverlapSpeedup < e.MinOverlapSpeedup {
			t.Errorf("%s: overlap speedup %.2fx below the %.2fx floor",
				key, p.OverlapSpeedup, e.MinOverlapSpeedup)
		}
	}
}

// TestPIMScaleSweepShape pins the default sweep's structural
// guarantees: it spans a single DPU to beyond-2048, every point is
// oracle-identical, and overlap strictly beats serial exactly on the
// multi-rank points.
func TestPIMScaleSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full DPU sweep in -short mode")
	}
	_, sweep, err := MeasurePIMScale(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) < 8 {
		t.Fatalf("default sweep produced only %d points", len(sweep))
	}
	maxDPUs := 0
	for _, p := range sweep {
		if p.DPUs > maxDPUs {
			maxDPUs = p.DPUs
		}
		if !p.BitIdentical {
			t.Errorf("n=%d dpus=%d: not bit-identical", p.N, p.DPUs)
		}
		if p.Ranks > 1 {
			if !(p.OverlapSeconds < p.SerialSeconds) {
				t.Errorf("n=%d dpus=%d (%d ranks): pipelined %g not below serial %g",
					p.N, p.DPUs, p.Ranks, p.OverlapSeconds, p.SerialSeconds)
			}
		} else if p.OverlapSeconds != p.SerialSeconds {
			t.Errorf("n=%d dpus=%d (single rank): pipelined %g != serial %g",
				p.N, p.DPUs, p.OverlapSeconds, p.SerialSeconds)
		}
	}
	if maxDPUs < 2048 {
		t.Fatalf("sweep tops out at %d DPUs, want ≥ 2048", maxDPUs)
	}
}
