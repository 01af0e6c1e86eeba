package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the metric list of BENCHMARK.json.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyPrograms shrinks each workload's rounds so a run takes a second or
// two.
var tinyPrograms = map[string]int{"fuzz-mutate": 3, "synth-check": 40, "diff-durable": 8}

func runTiny(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	w.programs = tinyPrograms[w.name]
	w.minRounds = 1
	w.sample = 2
	res, err := run(context.Background(), runConfig{
		w: w, seed: 3, trace: trace, dir: filepath.Join(t.TempDir(), "run"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("run is not correct:\n%s", strings.Join(res.notes, "\n"))
	}
	return res
}

// checkMetrics asserts that got holds exactly the metrics of want, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, got []metric, want []specMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("metric %s emitted twice", m.name)
		}
		units[m.name] = m.unit
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %s = %v", m.name, m.value)
		}
	}
	for _, s := range want {
		if u, ok := units[s.Name]; !ok {
			t.Errorf("metric %s missing", s.Name)
		} else if u != s.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", s.Name, u, s.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(got), len(want))
	}
}

func TestEndToEndMetrics(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runTiny(t, w, false)
			checkMetrics(t, res.e2e, s.EndToEnd)
			for _, m := range res.e2e {
				if m.value <= 0 {
					t.Errorf("metric %s = %v, want > 0", m.name, m.value)
				}
			}

			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := line[key]; !ok {
					t.Errorf("result line lacks %q", key)
				}
			}
			if len(line) != 4 {
				t.Errorf("result line has %d keys, want 4", len(line))
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, second := runTiny(t, w, true), runTiny(t, w, true)
			checkMetrics(t, first.layers, s.PerLayer)

			values := func(r *result) map[string]float64 {
				out := map[string]float64{}
				for _, m := range append(r.e2e, r.layers...) {
					out[m.name] = m.value
				}
				return out
			}
			a, b := values(first), values(second)
			var shares float64
			for _, st := range stages {
				shares += a["pipeline."+st+".busy_share"]
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("stage busy shares sum to %v, want 1", shares)
			}
			for name := range a {
				repeats := name == "findings" || name == "mutation.tem_combinations_tried" ||
					name == "mutation.tem_cap_hits" || strings.Contains(name, "allocs")
				if repeats && a[name] != b[name] {
					t.Errorf("%s = %v then %v for one seed, want a repeat", name, a[name], b[name])
				}
			}
		})
	}
}
