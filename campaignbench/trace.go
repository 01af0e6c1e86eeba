package main

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/types"
)

// tracer is the traced run's observation of its campaigns: the
// program's own metrics registry and event trace, the SuperChain
// truncation hook, the types cache counters, and a replay of each
// finished journal.
type tracer struct {
	reg    *metrics.Registry
	events *metrics.Trace

	truncations  atomic.Int64
	hits, misses uint64
	compiles     int
	retries      int
	// journalBytes and journalUnits size the finished journals;
	// journalReplays times a Store.Replay of each.
	journalBytes, journalUnits int
	journalReplays             []float64
}

func newTracer() *tracer {
	return &tracer{reg: metrics.NewRegistry(), events: metrics.NewTrace(4096)}
}

// hook counts SuperChain truncations until the returned func is called.
func (t *tracer) hook() (unhook func()) {
	types.SetSuperChainTruncationHook(func() { t.truncations.Add(1) })
	return func() { types.SetSuperChainTruncationHook(nil) }
}

// round runs one campaign with the tracer's instruments and observes
// it, its state directory included.
func (t *tracer) round(ctx context.Context, opts campaign.Options) (*round, error) {
	opts.Metrics, opts.Trace = t.reg, t.events
	unhook := t.hook()
	r, err := runCampaign(ctx, opts)
	unhook()
	if err != nil {
		return nil, err
	}
	t.hits += r.hits
	t.misses += r.misses
	t.compiles += r.compiles
	for _, f := range r.report.Faults.PerCompiler {
		t.retries += f.Retries
	}
	if opts.StateDir != "" {
		if err := t.replayJournal(opts.StateDir, r.units); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replayJournal times a Store.Replay of a finished state directory.
func (t *tracer) replayJournal(dir string, units int) error {
	store, err := journal.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = store.Replay(func(_ int64, payload []byte) error {
		t.journalBytes += len(payload)
		return nil
	})
	t.journalReplays = append(t.journalReplays, float64(time.Since(t0))/1e6)
	t.journalUnits += units
	return err
}

// histogram merges every registry histogram whose name starts with
// prefix.
func histogram(snap metrics.Snapshot, prefix string) *hist {
	h := &hist{}
	for name, s := range snap.Histograms {
		if strings.HasPrefix(name, prefix) {
			h.add(s)
		}
	}
	return h
}

// counter sums every registry counter whose name starts with prefix.
func counter(snap metrics.Snapshot, prefix string) int64 {
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// stages are the pipeline stages whose busy time the shares divide.
var stages = []string{"generate", "mutate", "execute", "judge", "aggregate"}

// layerMetrics assembles the per-layer metrics of a traced run from the
// untraced rounds' stage stats, the traced rounds' registry, and the
// replay's spans.
func layerMetrics(plain, traced []*round, t *tracer, rp *replay) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	// Pipeline stages, summed over the untraced rounds.
	busy := map[string]time.Duration{}
	service := map[string]*hist{}
	queue := map[string]int64{}
	var total time.Duration
	for _, r := range plain {
		for _, st := range r.report.Stats.Stages() {
			busy[st.Name()] += st.Busy()
			if service[st.Name()] == nil {
				service[st.Name()] = &hist{}
			}
			service[st.Name()].add(st.Service())
			queue[st.Name()] = max(queue[st.Name()], st.MaxQueue())
		}
	}
	for _, s := range stages {
		total += busy[s]
	}
	for _, s := range stages {
		h := service[s]
		if h == nil {
			h = &hist{}
		}
		add("pipeline."+s+".busy_share", "ratio", ratio(float64(busy[s]), float64(total)))
		add("pipeline."+s+".service_p50_ms", "ms", h.quantile(0.5)/1e6)
		add("pipeline."+s+".service_p99_ms", "ms", h.quantile(0.99)/1e6)
		add("pipeline."+s+".max_queue", "count", float64(queue[s]))
	}

	// Replayed layers: mean self time and allocations per call.
	lt := rp.rec.layers()
	mean := func(name string, scale float64) float64 {
		l := lt[name]
		if l == nil || l.calls == 0 {
			return 0
		}
		return float64(l.self) / float64(l.calls) / scale
	}
	allocs := func(name string) float64 {
		l := lt[name]
		if l == nil || l.calls == 0 {
			return 0
		}
		return float64(l.allocs) / float64(l.calls)
	}
	const ms, us = 1e6, 1e3
	add("generator.generate_ms", "ms", mean("generator.generate", ms))
	add("generator.stress_ms", "ms", mean("generator.stress", ms))
	add("generator.allocs_per_program", "count", allocs("generator.generate"))
	add("apisynth.program_ms", "ms", mean("apisynth.program", ms))
	add("apisynth.allocs_per_program", "count", allocs("apisynth.program"))
	add("apisynth.setup_ms", "ms", mean("apisynth.setup", ms))
	add("typegraph.build_ms", "ms", mean("typegraph.build", ms))
	add("typegraph.nodes_per_program", "count", ratio(float64(rp.graphNodes), float64(rp.graphs)))
	add("mutation.tem_ms", "ms", mean("mutation.tem", ms))
	add("mutation.tem_allocs", "count", allocs("mutation.tem"))
	add("mutation.tem_combinations_tried", "count", float64(rp.temTried))
	add("mutation.tem_cap_hits", "count", float64(rp.temCapHits))
	add("mutation.tem_erased_ratio", "ratio", ratio(float64(rp.temErased), float64(rp.temSeen)))
	add("mutation.tem_repairs", "count", float64(rp.temRepairs))
	add("mutation.tom_ms", "ms", mean("mutation.tom", ms))
	add("mutation.tom_applied_ratio", "ratio", ratio(float64(rp.tomApplied), float64(rp.tomTried)))
	add("mutation.temtom_ms", "ms", mean("mutation.temtom", ms))
	add("mutation.rem_ms", "ms", mean("mutation.rem", ms))
	add("mutation.rem_applied_ratio", "ratio", ratio(float64(rp.remApplied), float64(rp.remTried)))
	check, compile := mean("checker.check", ms), mean("compilers.compile", ms)
	add("checker.check_ms", "ms", check)
	add("checker.allocs_per_check", "count", allocs("checker.check"))
	add("checker.reject_ratio", "ratio", ratio(float64(rp.rejects), float64(rp.checks)))
	add("compilers.compile_ms", "ms", compile)
	add("compilers.overlay_ms", "ms", compile-check)
	add("types.cache_hit_ratio", "ratio", ratio(float64(t.hits), float64(t.hits+t.misses)))
	add("types.superchain_truncations", "count", float64(t.truncations.Load()))

	// Harness and governor, from the traced rounds' registry.
	snap := t.reg.Snapshot()
	wall := histogram(snap, "harness.compile_wall_ns.")
	add("harness.compile_wall_p50_ms", "ms", wall.quantile(0.5)/ms)
	add("harness.compile_wall_p99_ms", "ms", wall.quantile(0.99)/ms)
	add("harness.retries", "count", float64(t.retries))
	add("governor.fuel_per_compile_p50", "steps", histogram(snap, "harness.fuel_spent.").quantile(0.5))
	add("governor.exhausted_ratio", "ratio", ratio(float64(counter(snap, "harness.fuel_exhausted.")), float64(t.compiles)))

	add("oracle.judge_us", "us", mean("oracle.judge", us))
	add("difforacle.conformance_ms", "ms", mean("difforacle.conformance", ms))
	add("difforacle.disagree_ratio", "ratio", ratio(float64(rp.disagreements), float64(rp.judged)))
	for _, name := range []string{"kotlin", "java", "groovy"} {
		add("translate."+name+"_ms", "ms", mean("translate."+name, ms))
	}

	// The journal: a durable workload's own journal when it has one, the
	// replay's scratch journal otherwise.
	appendNs := histogram(snap, "campaign.journal.append_ns")
	syncNs := histogram(snap, "campaign.journal.sync_ns")
	if appendNs.count > 0 {
		add("journal.append_p50_us", "us", appendNs.quantile(0.5)/us)
		add("journal.sync_p99_ms", "ms", syncNs.quantile(0.99)/ms)
		add("journal.bytes_per_unit", "bytes", ratio(float64(t.journalBytes), float64(t.journalUnits)))
		add("journal.replay_ms", "ms", median(t.journalReplays))
	} else {
		add("journal.append_p50_us", "us", quantile(lt["journal.append"].selfs, 0.5)/us)
		add("journal.sync_p99_ms", "ms", quantile(lt["journal.sync"].selfs, 0.99)/ms)
		add("journal.bytes_per_unit", "bytes", ratio(float64(rp.journalBytes), float64(rp.units)))
		add("journal.replay_ms", "ms", mean("journal.replay", ms))
	}

	var plainWall, tracedWall time.Duration
	for i := range traced {
		plainWall += plain[i].wall
		tracedWall += traced[i].wall
	}
	add("trace.overhead_ratio", "ratio", ratio(float64(tracedWall), float64(plainWall)))
	return out
}
