package bench

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Golden regression values: the modelled PIM/CPU speedup of every row of
// Figures 1 and 2. This table is the record of what the calibrated
// models produce — there is no separate document. If a calibration
// change moves any figure by more than the tolerance, this test fails;
// re-verify the moved rows against the paper's figures before editing
// the value here.
func TestGoldenSpeedups(t *testing.T) {
	s := getSuite(t)
	const tol = 0.05 // 5 % drift allowed

	check := func(name string, rows []Row, want []float64) {
		t.Helper()
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(want))
		}
		for i, r := range rows {
			gotStr := strings.TrimSuffix(r.Annotation, "x")
			got, err := strconv.ParseFloat(gotStr, 64)
			if err != nil {
				t.Fatalf("%s row %d: bad annotation %q", name, i, r.Annotation)
			}
			if math.Abs(got-want[i])/want[i] > tol {
				t.Errorf("%s row %s: PIM/CPU %.1fx drifted from the golden %.1fx — re-verify against the paper's figure, then update this table",
					name, r.Label, got, want[i])
			}
		}
	}

	check("fig1a", s.Fig1a().Rows, []float64{84.9, 85.7, 86.1, 86.3, 86.4})
	check("fig1b", s.Fig1b().Rows, []float64{41.0, 41.0, 41.0, 41.0, 41.0})
	check("fig2a", s.Fig2a().Rows, []float64{20.5, 40.0, 78.1})
	check("fig2b", s.Fig2b().Rows, []float64{10.4, 20.8, 41.6})
	check("fig2c", s.Fig2c().Rows, []float64{10.4, 10.4})
}
