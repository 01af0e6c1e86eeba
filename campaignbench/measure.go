package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/types"
)

// round is one measured campaign.
type round struct {
	opts   campaign.Options
	report *campaign.Report
	// doc is the report's deterministic JSON projection.
	doc []byte
	// setup runs from campaign.New to the first unit admission; wall
	// from that admission to the finished report.
	setup, wall time.Duration
	// cpu is the process's user+sys CPU time over the whole campaign.
	cpu      time.Duration
	units    int
	compiles int
	// failed counts compiles that crashed the harness, timed out, or
	// left a gap (errored past retries, or skipped by a breaker).
	failed int
	// hits and misses are the types memo-cache counters of the campaign.
	hits, misses uint64
	// peakMiB is the process's peak resident set size during the
	// campaign.
	peakMiB float64
}

// runCampaign runs one cold campaign: the type caches are reset, the
// heap is returned to the OS and the peak RSS mark is reset first, and
// a recording admission gate timestamps the first unit.
func runCampaign(ctx context.Context, opts campaign.Options) (*round, error) {
	types.ResetCaches()
	debug.FreeOSMemory()
	resetPeakRSS()
	var once sync.Once
	var admitted time.Time
	opts.Gate = func(context.Context) error {
		once.Do(func() { admitted = time.Now() })
		return nil
	}
	cpu0 := cpuTime()
	start := time.Now()
	c := campaign.New(opts)
	if err := c.Start(ctx); err != nil {
		return nil, err
	}
	rep, err := c.Wait()
	end := time.Now()
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, fmt.Errorf("campaign at seed %d: %w", opts.Seed, err)
	}
	if admitted.IsZero() {
		return nil, fmt.Errorf("campaign at seed %d admitted no unit", opts.Seed)
	}
	doc, err := json.Marshal(rep.Doc())
	if err != nil {
		return nil, fmt.Errorf("encode report: %w", err)
	}
	r := &round{
		opts: opts, report: rep, doc: doc,
		setup: admitted.Sub(start), wall: end.Sub(admitted), cpu: cpu,
	}
	for _, b := range rep.BugRate {
		r.units += b.Units
	}
	for _, f := range rep.Faults.PerCompiler {
		r.compiles += f.Compiles
		r.failed += f.Crashes + f.Timeouts + f.Errored + f.Quarantined
	}
	r.hits, r.misses = types.CacheStats()
	if r.peakMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	return r, nil
}

// runRound runs the round of workload w whose units start at seed
// first, traced by t unless t is nil.
func runRound(ctx context.Context, w workload, first int64, dirs *scratch, t *tracer) (*round, error) {
	opts, err := w.options(first, w.programs, dirs)
	if err != nil {
		return nil, err
	}
	defer dirs.remove(opts.StateDir)
	if t == nil {
		return runCampaign(ctx, opts)
	}
	return t.round(ctx, opts)
}

// endToEnd is a run's end-to-end metrics: rates and CPU cost over all
// rounds, medians of the set-ups and of the rounds' peak RSS.
func endToEnd(plain []*round, setups []float64, found int) []metric {
	var units, compiles int
	var wall, cpu time.Duration
	var peaks []float64
	for _, r := range plain {
		units += r.units
		compiles += r.compiles
		wall += r.wall
		cpu += r.cpu
		peaks = append(peaks, r.peakMiB)
	}
	return []metric{
		{"setup_s", "s", median(setups)},
		{"units_per_s", "units/s", ratio(float64(units), wall.Seconds())},
		{"compiles_per_s", "compiles/s", ratio(float64(compiles), wall.Seconds())},
		{"cpu_ms_per_unit", "ms", ratio(float64(cpu)/1e6, float64(units))},
		{"peak_rss_mb", "MiB", median(peaks)},
		{"findings", "count", float64(found)},
	}
}

// errProbed ends a set-up probe at its first admission.
var errProbed = errors.New("set-up probe reached its first admission")

// probeSetup measures one campaign's set-up time alone: the gate stops
// the source at the first admission, so the campaign folds no unit.
func probeSetup(ctx context.Context, opts campaign.Options) (time.Duration, error) {
	types.ResetCaches()
	var once sync.Once
	var admitted time.Time
	opts.Gate = func(context.Context) error {
		once.Do(func() { admitted = time.Now() })
		return errProbed
	}
	start := time.Now()
	c := campaign.New(opts)
	if err := c.Start(ctx); err != nil {
		return 0, err
	}
	if _, err := c.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if admitted.IsZero() {
		return 0, errors.New("set-up probe: no admission")
	}
	return admitted.Sub(start), nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the kernel's peak RSS mark (VmHWM) to the current
// RSS. Where the kernel refuses, the mark stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the peak resident set size (VmHWM) since the last
// resetPeakRSS.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

// findings is the set of distinct findings of some rounds, keyed
// "bug:<id>" or "diff:<id>", each with the lowest seed that hit it.
func findings(rounds []*round) map[string]int64 {
	out := map[string]int64{}
	note := func(key string, seed int64) {
		if s, ok := out[key]; !ok || seed < s {
			out[key] = seed
		}
	}
	for _, r := range rounds {
		for id, rec := range r.report.Found {
			note("bug:"+id, rec.FirstSeed)
		}
		for id, rec := range r.report.Disagreements {
			note("diff:"+id, rec.FirstSeed)
		}
	}
	return out
}

// rederive re-runs a one-unit campaign at each finding's first seed,
// with the workload's options, and returns the findings it did not hit
// again. Findings sharing a seed share the campaign.
func rederive(ctx context.Context, w workload, found map[string]int64, dirs *scratch) ([]string, error) {
	bySeed := map[int64][]string{}
	for key, seed := range found {
		bySeed[seed] = append(bySeed[seed], key)
	}
	var missed []string
	for seed, keys := range bySeed {
		opts, err := w.options(seed, 1, dirs)
		if err != nil {
			return nil, err
		}
		r, err := runCampaign(ctx, opts)
		dirs.remove(opts.StateDir)
		if err != nil {
			return nil, err
		}
		again := findings([]*round{r})
		for _, key := range keys {
			if _, ok := again[key]; !ok {
				missed = append(missed, key)
			}
		}
	}
	return missed, nil
}

// scratch hands out fresh state directories under one root.
type scratch struct{ root string }

func (s *scratch) fresh() (string, error) {
	if err := os.MkdirAll(s.root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(s.root, "state-")
}

// remove deletes a state directory; the empty name (a non-durable
// campaign's) is a no-op.
func (s *scratch) remove(dir string) { _ = os.RemoveAll(dir) }
