// Command bench runs the component benchmark tier (internal/benchkit)
// programmatically and emits a machine-readable BENCH_*.json file: one
// record per benchmark with ns/op, B/op, allocs/op, and any domain metrics
// the benchmark reported. When a baseline file is given (or auto-detected
// as the most recent other BENCH_*.json in the output directory), it diffs
// against it and exits non-zero if any benchmark's allocs/op regressed past
// the threshold; ns/op is printed beside it but not gated.
//
// Usage:
//
//	go run ./cmd/bench                          # full run, write BENCH_5.json
//	go run ./cmd/bench -benchtime 1x -no-fail   # CI smoke: validate output only
//	go run ./cmd/bench -run 'Translate|Subtype' # subset
//	go run ./cmd/bench -diff OLD.json NEW.json  # compare two existing files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/benchkit"
)

// Schema identifies the BENCH_*.json layout for forward compatibility.
const Schema = "repro-bench/v1"

// Record is one benchmark's measurement.
type Record struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the on-disk BENCH_*.json document.
type File struct {
	Schema      string   `json:"schema"`
	GoVersion   string   `json:"go_version"`
	CreatedUnix int64    `json:"created_unix"`
	Benchtime   string   `json:"benchtime"`
	Benchmarks  []Record `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_5.json", "output JSON file")
	baseline := fs.String("baseline", "", "baseline BENCH_*.json to diff against (default: newest other BENCH_*.json beside -out)")
	threshold := fs.Float64("threshold", 0.15, "relative allocs/op regression threshold (0.15 = +15%)")
	benchtime := fs.String("benchtime", "0.2s", "per-benchmark duration or iteration count (e.g. 1x)")
	runFilter := fs.String("run", "", "regexp selecting benchmarks to run")
	noFail := fs.Bool("no-fail", false, "report regressions but exit 0")
	list := fs.Bool("list", false, "list benchmark names and exit")
	diff := fs.Bool("diff", false, "compare two existing files: -diff OLD.json NEW.json")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff wants exactly two files, got %d", fs.NArg())
		}
		old, err := load(fs.Arg(0))
		if err != nil {
			return err
		}
		cur, err := load(fs.Arg(1))
		if err != nil {
			return err
		}
		regressions := report(os.Stdout, old, cur, *threshold)
		if regressions > 0 && !*noFail {
			return fmt.Errorf("%d benchmark(s) regressed past %+.0f%%", regressions, *threshold*100)
		}
		return nil
	}

	specs := benchkit.Specs()
	if *list {
		for _, s := range specs {
			fmt.Println(s.Name)
		}
		return nil
	}
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			return fmt.Errorf("bad -run regexp: %w", err)
		}
		kept := specs[:0]
		for _, s := range specs {
			if re.MatchString(s.Name) {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	if len(specs) == 0 {
		return fmt.Errorf("no benchmarks match -run %q", *runFilter)
	}

	// testing.Benchmark honors the test.benchtime flag; register the
	// testing flags and set it explicitly.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fmt.Errorf("bad -benchtime: %w", err)
	}

	doc := File{
		Schema:      Schema,
		GoVersion:   runtime.Version(),
		CreatedUnix: time.Now().Unix(),
		Benchtime:   *benchtime,
	}
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "running %-24s ", s.Name)
		r := testing.Benchmark(s.Fn)
		rec := Record{
			Name:        s.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			rec.Metrics = map[string]float64{}
			for k, v := range r.Extra {
				rec.Metrics[k] = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, rec)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d B/op %6d allocs/op (n=%d)\n",
			rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.N)
	}

	if err := write(*out, doc); err != nil {
		return err
	}
	// Self-validate: the written file must parse back into the schema.
	written, err := load(*out)
	if err != nil {
		return fmt.Errorf("self-validation of %s failed: %w", *out, err)
	}
	if len(written.Benchmarks) != len(doc.Benchmarks) {
		return fmt.Errorf("self-validation: wrote %d benchmarks, read back %d",
			len(doc.Benchmarks), len(written.Benchmarks))
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))

	base := *baseline
	if base == "" {
		base = newestSibling(*out)
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "no baseline found; skipping diff")
		return nil
	}
	old, err := load(base)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	fmt.Fprintf(os.Stderr, "diffing against %s\n", base)
	regressions := report(os.Stdout, old, &doc, *threshold)
	if regressions > 0 && !*noFail {
		return fmt.Errorf("%d benchmark(s) regressed past %+.0f%%", regressions, *threshold*100)
	}
	return nil
}

func write(path string, doc File) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	for _, b := range doc.Benchmarks {
		if b.Name == "" || b.N <= 0 || b.NsPerOp < 0 {
			return nil, fmt.Errorf("%s: malformed record %+v", path, b)
		}
	}
	return &doc, nil
}

// newestSibling returns the most recently modified BENCH_*.json next to
// out, excluding out itself.
func newestSibling(out string) string {
	dir := filepath.Dir(out)
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	outAbs, _ := filepath.Abs(out)
	best, bestTime := "", time.Time{}
	for _, m := range matches {
		abs, _ := filepath.Abs(m)
		if abs == outAbs {
			continue
		}
		info, err := os.Stat(m)
		if err != nil {
			continue
		}
		if info.ModTime().After(bestTime) {
			best, bestTime = m, info.ModTime()
		}
	}
	return best
}

// report prints a per-benchmark comparison and returns the number of
// allocs/op regressions beyond threshold. Allocs/op is deterministic for a
// given toolchain, so it is the gated currency; ns/op swings with the host
// and is printed beside it for reading, never gated. Benchmarks present on
// only one side are listed but never counted as regressions.
func report(w io.Writer, old, cur *File, threshold float64) int {
	oldBy := map[string]Record{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	names := make([]string, 0, len(cur.Benchmarks))
	curBy := map[string]Record{}
	for _, b := range cur.Benchmarks {
		names = append(names, b.Name)
		curBy[b.Name] = b
	}
	sort.Strings(names)

	regressions := 0
	fmt.Fprintf(w, "%-24s %12s %12s %8s %14s %14s %8s\n",
		"benchmark", "old allocs", "new allocs", "delta", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		nb := curBy[name]
		ob, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-24s %12s %12d %8s %14s %14.0f %8s\n", name, "-", nb.AllocsPerOp, "new", "-", nb.NsPerOp, "new")
			continue
		}
		allocDelta := relDelta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		mark := ""
		if allocDelta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-24s %12d %12d %+7.1f%% %14.0f %14.0f %+7.1f%%%s\n", name,
			ob.AllocsPerOp, nb.AllocsPerOp, allocDelta*100,
			ob.NsPerOp, nb.NsPerOp, relDelta(ob.NsPerOp, nb.NsPerOp)*100, mark)
	}
	for _, b := range old.Benchmarks {
		if _, ok := curBy[b.Name]; !ok {
			fmt.Fprintf(w, "%-24s %12d %12s %8s %14.0f %14s %8s\n", b.Name, b.AllocsPerOp, "-", "gone", b.NsPerOp, "-", "gone")
		}
	}
	return regressions
}

// relDelta is cur/old - 1; a rise from zero is +Inf, and zero to zero is 0.
func relDelta(old, cur float64) float64 {
	if old > 0 {
		return cur/old - 1
	}
	if cur > 0 {
		return math.Inf(1)
	}
	return 0
}
