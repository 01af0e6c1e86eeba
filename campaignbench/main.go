// Command campaignbench is the repository's campaign benchmark. It runs
// one named workload through the public campaign API for a time budget,
// checks the campaigns' output, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics — as the last line of standard
// output:
//
//	campaignbench -workload fuzz-mutate -seed 1 -seconds 10 -trace 0
//
// Each measured campaign (a round) starts cold: fresh type caches and,
// for the durable workload, a fresh state directory. The correctness
// checks are that every campaign completes, that a one-unit campaign at
// each finding's first seed finds it again, and, in a traced run, that
// every traced campaign's report document is byte-identical to the
// untraced one of the same options. The command exits 1 on any
// mismatch. See README.md for the workloads and the metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	// e2e are the end-to-end metrics; layers, set by a traced run only,
	// the per-layer ones. The result line carries layers when set.
	e2e, layers []metric
	// notes are human-readable lines printed before the result line.
	notes []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// spans is where a traced run writes its spans; empty skips.
	spans string
	// dir is the scratch root for state directories, removed at the end.
	dir string
}

// setupProbes is the number of set-up-only campaigns before the rounds;
// setup_s is the median over them and the rounds.
const setupProbes = 9

func run(ctx context.Context, cfg runConfig) (*result, error) {
	dirs := &scratch{root: cfg.dir}
	defer os.RemoveAll(cfg.dir)
	w := cfg.w
	deadline := time.Now().Add(cfg.seconds)

	var setups []float64
	for i := 0; i < setupProbes; i++ {
		opts, err := w.options(w.roundSeed(cfg.seed, 0), w.programs, dirs)
		if err != nil {
			return nil, err
		}
		d, err := probeSetup(ctx, opts)
		dirs.remove(opts.StateDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	var plain, traced []*round
	for r := 0; r < w.minRounds || time.Now().Before(deadline); r++ {
		// A traced run pairs every round with a traced twin of the same
		// options; the two take turns at going first so drift does not
		// bias the overhead ratio.
		order := []*tracer{nil}
		switch {
		case t != nil && r%2 == 0:
			order = []*tracer{nil, t}
		case t != nil:
			order = []*tracer{t, nil}
		}
		for _, by := range order {
			rd, err := runRound(ctx, w, w.roundSeed(cfg.seed, r), dirs, by)
			if err != nil {
				return nil, err
			}
			if by != nil {
				traced = append(traced, rd)
				continue
			}
			plain = append(plain, rd)
			setups = append(setups, rd.setup.Seconds())
		}
	}

	res := &result{correct: true}
	units := 0
	for _, p := range plain {
		units += p.units
		res.failed += p.failed
	}
	res.attempted = units

	found := findings(plain[:w.minRounds])
	missed, err := rederive(ctx, w, found, dirs)
	if err != nil {
		return nil, err
	}
	res.attempted += len(found)
	res.failed += len(missed)
	sort.Strings(missed)
	for _, key := range missed {
		res.correct = false
		res.notef("MISMATCH: %s not found again at seed %d", key, found[key])
	}
	for i := range traced {
		res.attempted++
		if !bytes.Equal(plain[i].doc, traced[i].doc) {
			res.correct = false
			res.failed++
			res.notef("MISMATCH: traced report of round %d differs from the untraced one", i)
		}
	}

	res.notef("workload %s seed %d: %d rounds of %d units, %d set-ups, %d findings re-derived",
		w.name, cfg.seed, len(plain), w.programs, len(setups), len(found))
	res.e2e = endToEnd(plain, setups, len(found))
	for _, m := range res.e2e {
		res.notef("  %-16s %14.6g %s", m.name, m.value, m.unit)
	}
	res.notef("  %-16s %14.6g ratio (%d failed of %d attempted)", "failed_ratio",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if t == nil {
		return res, nil
	}

	unhook := t.hook()
	rp, err := runReplay(plain[0].opts, sampleSeeds(w, cfg.seed, w.sample), filepath.Join(cfg.dir, "replay"))
	unhook()
	if err != nil {
		return nil, err
	}
	res.layers = layerMetrics(plain, traced, t, rp)
	res.notef("traced: %d round pairs, %d units replayed, %d spans", len(traced), rp.units, len(rp.rec.spans))
	res.notef("  %-26s %8s %12s %14s", "layer (self time)", "calls", "total ms", "allocs/call")
	lt := rp.rec.layers()
	names := make([]string, 0, len(lt))
	for name := range lt {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := lt[name]
		allocs := "-"
		if l.allocs > 0 {
			allocs = fmt.Sprintf("%.1f", float64(l.allocs)/float64(l.calls))
		}
		res.notef("  %-26s %8d %12.3f %14s", name, l.calls, float64(l.self)/1e6, allocs)
	}
	if cfg.spans != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
			return nil, err
		}
		if err := rp.rec.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.notef("spans written to %s", cfg.spans)
	}
	return res, nil
}

// resultLine is the JSON object printed as the last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	metrics := r.e2e
	if r.layers != nil {
		metrics = r.layers
	}
	for _, m := range metrics {
		line.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: fuzz-mutate, synth-check or diff-durable")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spans := flag.String("spans", "", "where a traced run writes its spans as JSON lines (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "campaignbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *spans == "" && *trace == 1 {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	}
	cfg := runConfig{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spans: *spans,
		dir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}
