package campaign

import (
	"context"
	"fmt"

	"repro/internal/compilers"
	"repro/internal/harness"
	"repro/internal/pipeline"
)

// NewDerivation builds the seed→inputs stages of a campaign with these
// options: Generate, with the API synthesizer as its producer when
// synthesis is on, and the four mutations when Mutate is set. The
// campaign's pipeline runs exactly these stages, and everything that
// re-derives a unit (/repro, the CLI, the examples) calls Derive on
// them, so there is one derivation path.
func NewDerivation(opts Options) (*pipeline.Derivation, error) {
	d := &pipeline.Derivation{Generate: &pipeline.Generate{Config: opts.GenConfig}}
	if opts.Synth.Enabled() {
		prod, err := newSynthProducer(opts.Synth)
		if err != nil {
			return nil, err
		}
		d.Generate.Producers = []pipeline.Producer{prod}
	}
	if opts.Mutate {
		d.Mutate = &pipeline.Mutate{TEM: true, TOM: true, TEMTOM: true, REM: true}
	}
	return d, nil
}

// Trigger re-derives a found bug's first triggering seed through the
// campaign's derivation and returns the first derived input, in the
// order the campaign compiled them, whose kind found the bug and which
// still triggers it on its compiler. Each candidate compiles under the
// campaign's harness options (fuel budget, watchdog), as it did in the
// campaign. The bug's compiler is returned alongside.
func (r *Report) Trigger(bugID string) (pipeline.Input, *compilers.Compiler, error) {
	rec := r.Found[bugID]
	if rec == nil {
		return pipeline.Input{}, nil, fmt.Errorf("bug %s not found by this campaign", bugID)
	}
	var comp *compilers.Compiler
	for _, c := range r.Opts.Compilers {
		if c.Name() == rec.Bug.Compiler {
			comp = c
		}
	}
	if comp == nil {
		return pipeline.Input{}, nil, fmt.Errorf("bug %s belongs to compiler %s, which this campaign did not test", bugID, rec.Bug.Compiler)
	}
	d, err := NewDerivation(r.Opts)
	if err != nil {
		return pipeline.Input{}, nil, err
	}
	sandbox := harness.New(r.Opts.Harness)
	target := harness.WrapCompiler(comp)
	for i, in := range d.Derive(rec.FirstSeed).Inputs {
		if !rec.FoundBy.Has(in.Kind) {
			continue
		}
		inv := sandbox.Compile(context.Background(), target, in.Prog, nil, harness.Key{Unit: rec.FirstSeed, Input: i})
		if inv.Outcome == harness.Completed && inv.Result.Triggers(bugID) {
			return in, comp, nil
		}
	}
	return pipeline.Input{}, nil, fmt.Errorf("bug %s: seed %d no longer derives a triggering program", bugID, rec.FirstSeed)
}
