package main

import (
	"io"
	"strings"
	"testing"
)

func benchFile(recs ...Record) *File {
	return &File{Schema: Schema, Benchmarks: recs}
}

// TestReportGatesOnAllocs checks that the regression gate counts allocs/op
// rises past the threshold and ignores ns/op, however large its swing.
func TestReportGatesOnAllocs(t *testing.T) {
	old := benchFile(
		Record{Name: "Allocs", N: 1, NsPerOp: 100, AllocsPerOp: 100},
		Record{Name: "Slower", N: 1, NsPerOp: 100, AllocsPerOp: 100},
		Record{Name: "FromZero", N: 1, NsPerOp: 100, AllocsPerOp: 0},
		Record{Name: "Gone", N: 1, NsPerOp: 100, AllocsPerOp: 100},
	)
	cur := benchFile(
		Record{Name: "Allocs", N: 1, NsPerOp: 50, AllocsPerOp: 120},
		Record{Name: "Slower", N: 1, NsPerOp: 400, AllocsPerOp: 110},
		Record{Name: "FromZero", N: 1, NsPerOp: 100, AllocsPerOp: 1},
		Record{Name: "New", N: 1, NsPerOp: 100, AllocsPerOp: 1000},
	)
	var out strings.Builder
	if got := report(&out, old, cur, 0.15); got != 2 {
		t.Fatalf("regressions = %d, want 2 (Allocs and FromZero)\n%s", got, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		flagged := strings.HasSuffix(line, "REGRESSION")
		want := strings.HasPrefix(line, "Allocs ") || strings.HasPrefix(line, "FromZero ")
		if flagged != want {
			t.Errorf("line %q: flagged=%v, want %v", line, flagged, want)
		}
	}
	if report(io.Discard, old, old, 0.15) != 0 {
		t.Error("a file compared with itself must not regress")
	}
}
