package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/apisynth"
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/compilers"
	"repro/internal/difforacle"
	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// span is one timed call the replay made into a layer's public entry
// point. Times are nanoseconds since the replay started; Parent is 0 for
// a root span. Allocs is set on the calls whose heap allocations are
// counted.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Unit   int64  `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// recorder keeps the replay's spans in memory. It is used from one
// goroutine.
type recorder struct {
	epoch time.Time
	unit  int64
	spans []span
	open  []int
}

func (r *recorder) parent() int {
	if n := len(r.open); n > 0 {
		return r.open[n-1]
	}
	return 0
}

// begin opens a span that encloses later ones.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name, Unit: r.unit, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span.
func (r *recorder) end() {
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id-1].End = int64(time.Since(r.epoch))
}

// do records f as a leaf span.
func (r *recorder) do(name string, f func()) {
	t0 := time.Now()
	f()
	r.leaf(name, t0, time.Now(), 0)
}

// doAllocs is do plus the count of heap allocations f made. The replay
// runs on one P with the collector paused, so the count repeats exactly.
func (r *recorder) doAllocs(name string, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	r.leaf(name, t0, t1, m1.Mallocs-m0.Mallocs)
}

func (r *recorder) leaf(name string, t0, t1 time.Time, allocs uint64) {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: r.parent(), Name: name, Unit: r.unit,
		Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch)), Allocs: allocs,
	})
}

// layerTime is the per-name aggregate of the spans: calls, self time
// (span time minus the time of its child spans), and allocations.
type layerTime struct {
	calls  int
	self   time.Duration
	allocs uint64
	// selfs lists each call's self time, for percentiles.
	selfs []float64
}

func (r *recorder) layers() map[string]*layerTime {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for _, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		self := time.Duration(s.End - s.Start - child[s.ID])
		lt.calls++
		lt.self += self
		lt.allocs += s.Allocs
		lt.selfs = append(lt.selfs, float64(self))
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replay re-runs a seeded sample of a workload's units layer by layer,
// calling each layer's public entry point with a span around it. Layers
// the workload's campaign does not run on a unit (a producer it does not
// use, mutation of units it does not mutate, translator conformance
// under the ground-truth oracle) are still priced on the same unit, so
// every layer metric is measured on every workload; only the layers the
// campaign runs feed the next layer.
type replay struct {
	opts  campaign.Options
	rec   *recorder
	synth *apisynth.Synthesizer
	// checkB is the type universe the reference check runs against, a
	// fresh one like each simulated compiler's.
	checkB *types.Builtins
	xlate  []translate.Translator
	store  *journal.Store
	jw     *journal.Writer

	units, graphs, graphNodes                int
	temTried, temCapHits, temErased, temSeen int
	temRepairs, tomTried, tomApplied         int
	remTried, remApplied                     int
	checks, rejects, disagreements, judged   int
	journalBytes                             int
}

// temCap is the TEM search size above which a program counts as a cap
// hit.
const temCap = 4096

// sampleSeeds draws n distinct unit seeds of round 0, sorted.
func sampleSeeds(w workload, seed int64, n int) []int64 {
	first := w.roundSeed(seed, 0)
	perm := rand.New(rand.NewSource(seed)).Perm(w.programs)
	n = min(n, len(perm))
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(perm[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runReplay replays the sample on one P with the collector paused
// inside each unit, starting from cold type caches. dir holds the
// scratch journal the replay appends each unit's record to.
func runReplay(opts campaign.Options, seeds []int64, dir string) (*replay, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	types.ResetCaches()

	rp := &replay{
		opts:   opts,
		rec:    &recorder{epoch: time.Now()},
		checkB: types.NewBuiltins(),
		xlate:  translate.All(),
	}
	var err error
	rp.rec.do("apisynth.setup", func() {
		var corp apisynth.Corpus
		if corp, err = opts.Synth.Load(); err == nil {
			rp.synth, err = apisynth.NewSynthesizer(corp)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay: synthesizer: %w", err)
	}
	if rp.store, err = journal.Open(dir); err != nil {
		return nil, err
	}
	// Records are synced explicitly, one fsync each, so append and sync
	// are timed apart.
	if rp.jw, err = rp.store.Append(1 << 30); err != nil {
		return nil, err
	}
	for _, s := range seeds {
		if err := rp.unit(s); err != nil {
			rp.jw.Close()
			return nil, err
		}
	}
	if err := rp.jw.Close(); err != nil {
		return nil, err
	}
	rp.rec.unit = 0
	rp.rec.do("journal.replay", func() {
		_, err = rp.store.Replay(func(_ int64, payload []byte) error {
			rp.journalBytes += len(payload)
			return nil
		})
	})
	return rp, err
}

// unitRecord is what the replay journals per unit: the unit's inputs and
// each compile's verdict, a record of the size the campaign journals.
type unitRecord struct {
	Seed     int64    `json:"seed"`
	Inputs   []string `json:"inputs"`
	Verdicts []string `json:"verdicts"`
}

// unit replays one unit: produce its program, mutate it, check and
// compile every input, judge, check translator conformance, translate,
// and journal the unit's record.
func (rp *replay) unit(seed int64) error {
	// Two collections empty the sync.Pools, so every unit starts from
	// the same allocator state.
	runtime.GC()
	runtime.GC()
	rec := rp.rec
	rec.unit = seed
	rec.begin("unit")
	defer rec.end()
	rp.units++

	gen := rp.opts.GenConfig
	var base *ir.Program
	var b *types.Builtins
	kind := oracle.Generated
	grammar := func() {
		g := generator.New(gen.WithSeed(seed))
		base, b = g.Generate(), g.Builtins()
	}
	stressed := func() {
		g := generator.New(gen.WithSeed(seed))
		base, b = g.GenerateStress(), g.Builtins()
	}
	synthesized := func() { base, b = rp.synth.Program(seed), rp.synth.Builtins() }
	stress := false
	switch {
	case rp.opts.Synth.SynthSeed(seed):
		kind = oracle.Synthesized
		rec.doAllocs("apisynth.program", synthesized)
	case gen.StressSeed(seed):
		stress = true
		rec.do("generator.stress", stressed)
	default:
		rec.doAllocs("generator.generate", grammar)
	}
	own, ownB := base, b
	// Price the producers this unit did not use on the same seed.
	if kind != oracle.Synthesized {
		rec.doAllocs("apisynth.program", synthesized)
	}
	if kind == oracle.Synthesized || stress {
		rec.doAllocs("generator.generate", grammar)
	}
	if !stress {
		rec.do("generator.stress", stressed)
	}
	base, b = own, ownB

	inputs := []pipeline.Input{{Kind: kind, Prog: base}}
	// Mutation's graph analysis runs unbudgeted, so stress programs are
	// never mutated (as in the pipeline's Mutate stage).
	if !stress {
		mutates := rp.opts.Mutate && (&pipeline.Unit{Kind: kind}).Mutable()
		inputs = rp.mutate(seed, base, b, mutates, inputs)
	}

	var verdicts []string
	for _, in := range inputs {
		verdicts = append(verdicts, rp.input(in, stress)...)
	}

	kinds := make([]string, len(inputs))
	for i, in := range inputs {
		kinds[i] = in.Kind.String()
	}
	payload, err := json.Marshal(unitRecord{Seed: seed, Inputs: kinds, Verdicts: verdicts})
	if err != nil {
		return err
	}
	rec.do("journal.append", func() { err = rp.jw.Append(payload) })
	if err != nil {
		return err
	}
	rec.do("journal.sync", func() { err = rp.jw.Sync() })
	return err
}

// mutate runs the type graph analysis and the four mutations on a base
// program, with the derivation seeds of the pipeline's Mutate stage, and
// appends the mutants to inputs when the campaign mutates the unit.
func (rp *replay) mutate(seed int64, base *ir.Program, b *types.Builtins, mutates bool, inputs []pipeline.Input) []pipeline.Input {
	rec := rp.rec
	rec.do("typegraph.build", func() {
		for _, g := range typegraph.Analyze(base, b).BuildAll() {
			rp.graphNodes += g.NumNodes()
		}
	})
	rp.graphs++

	var tem *ir.Program
	var rep *mutation.TEMReport
	rec.doAllocs("mutation.tem", func() { tem, rep = mutation.TypeErasure(base, b) })
	rp.temTried += rep.CombinationsTried
	if rep.CombinationsTried > temCap {
		rp.temCapHits++
	}
	rp.temErased += len(rep.Erased)
	rp.temSeen += rep.CandidatesSeen
	rp.temRepairs += rep.RepairedMethods
	if mutates && rep.Changed() {
		inputs = append(inputs, pipeline.Input{Kind: oracle.TEMMutant, Prog: tem})
	}

	var tom, temtom, rem *ir.Program
	rec.do("mutation.tom", func() { tom, _ = mutation.TypeOverwriting(base, b, rand.New(rand.NewSource(seed))) })
	rec.do("mutation.temtom", func() {
		temtom, _ = mutation.TypeOverwriting(tem, b, rand.New(rand.NewSource(seed^0x5bd1e995)))
	})
	rec.do("mutation.rem", func() {
		rem, _ = mutation.ResolutionMutation(base, b, rand.New(rand.NewSource(seed^0x9e3779b9)))
	})
	rp.tomTried++
	rp.remTried++
	if tom != nil {
		rp.tomApplied++
	}
	if rem != nil {
		rp.remApplied++
	}
	if mutates {
		for _, m := range []pipeline.Input{{Kind: oracle.TOMMutant, Prog: tom}, {Kind: oracle.TEMTOMMutant, Prog: temtom}, {Kind: oracle.REMMutant, Prog: rem}} {
			if m.Prog != nil {
				inputs = append(inputs, m)
			}
		}
	}
	return inputs
}

// input checks and compiles one input under the workload's fuel budget,
// judges the results, and (off stress programs, whose translation
// re-runs the checker unbudgeted) checks and renders the translations.
// It returns one verdict per compiler.
func (rp *replay) input(in pipeline.Input, stress bool) []string {
	rec := rp.rec
	rec.begin("input")
	defer rec.end()
	fuel, depth := rp.opts.Harness.Fuel, rp.opts.Harness.MaxDepth

	var res *checker.Result
	rec.doAllocs("checker.check", func() {
		res = checker.Check(in.Prog, rp.checkB, checker.Options{Budget: governor.New(fuel, depth)})
	})
	rp.checks++
	if res.Bailout != nil || !res.OK() {
		rp.rejects++
	}

	comps := rp.opts.Compilers
	results := make([]*compilers.Result, len(comps))
	for i, c := range comps {
		ctx := governor.WithBudget(context.Background(), governor.New(fuel, depth))
		rec.do("compilers.compile", func() {
			var err error
			if results[i], err = c.CompileContext(ctx, in.Prog, nil); err != nil {
				results[i] = &compilers.Result{Status: compilers.Crashed, Diagnostics: []string{err.Error()}}
			}
		})
	}

	verdicts := make([]string, len(comps))
	samples := make([]difforacle.Sample, len(comps))
	vote := func() difforacle.Analysis {
		for i, r := range results {
			samples[i] = difforacle.Sample{Compiler: comps[i].Name(), Lane: difforacle.Normalize(r)}
		}
		return difforacle.Analyze(samples)
	}
	var an difforacle.Analysis
	if rp.opts.Oracle == campaign.Differential {
		rec.do("oracle.judge", func() { an = vote() })
		for i := range verdicts {
			verdicts[i] = samples[i].Lane.String()
		}
	} else {
		rec.do("oracle.judge", func() {
			for i, r := range results {
				verdicts[i] = oracle.Judge(in.Kind, r).String()
			}
		})
		an = vote()
	}
	rp.judged++
	if an.Disagree {
		rp.disagreements++
	}

	if !stress {
		rec.do("difforacle.conformance", func() {
			difforacle.AnalyzeConformance(difforacle.CheckTranslators(in.Prog))
		})
		for _, t := range rp.xlate {
			rec.do("translate."+t.Name(), func() { t.Translate(in.Prog) })
		}
	}
	return verdicts
}
