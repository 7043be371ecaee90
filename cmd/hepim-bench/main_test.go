package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFigAllIsGolden holds `hepim-bench -fig all` byte for byte to
// testdata/fig_all.txt. Every figure is a deterministic function of the
// calibrated models and the simulator's counted work, so any change to a
// modelled number, a simulated cycle count or the table layout shows up
// here. The golden file is a record of the model, not a snapshot to
// regenerate when a refactor disagrees with it.
func TestFigAllIsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-fig", "all"}, &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("-fig all differs from testdata/fig_all.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("-fig all differs from testdata/fig_all.txt")
}
