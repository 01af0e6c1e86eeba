// Package cli is the shared configuration surface of the campaign
// front ends: one Config struct that cmd/campaign, cmd/hephaestus, and
// cmd/server all build campaign.Options from, one place that registers
// the ~15 flags the CLIs used to duplicate, and one JSON shape the
// server accepts as a campaign submission — so a config that runs from
// the command line runs identically when POSTed to the service.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/apisynth"
	"repro/internal/campaign"
	"repro/internal/compilers"
	"repro/internal/generator"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/types"
)

// Duration is a time.Duration that JSON-decodes from either a string
// ("10s") or a number of nanoseconds, so HTTP submissions can write
// timeouts the way flags do.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "10s"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("cli: bad duration %q: %w", x, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("cli: duration must be a string or number, got %T", v)
	}
	return nil
}

// Config is the shared campaign configuration: every campaign-defining
// knob the CLIs expose, in a JSON-marshalable shape the server accepts
// as a submission body. Process-local concerns (state directory,
// debug address, heartbeat cadence) are deliberately excluded from the
// JSON surface — the server owns those per campaign.
type Config struct {
	// Seed is the base seed; program i uses Seed+i.
	Seed int64 `json:"seed"`
	// Programs is the number of generated seed programs.
	Programs int `json:"programs"`
	// Workers is the per-stage pipeline worker count (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Compilers names the compilers under test (groovyc, kotlinc,
	// javac); empty means all three.
	Compilers []string `json:"compilers,omitempty"`
	// NoMutate disables the TEM/TOM/TEM∘TOM/REM mutation stages.
	NoMutate bool `json:"no_mutate,omitempty"`
	// Oracle selects the test oracle: "" or "ground-truth" for the
	// paper's derivation-based oracle, "differential" for cross-compiler
	// vote comparison plus translator conformance. Verdict-affecting: it
	// is part of the JSON submission surface, ships to fabric workers
	// inside the lease config, and folds into the campaign fingerprint.
	Oracle string `json:"oracle,omitempty"`
	// CompileTimeout bounds one compile under the watchdog (0 disables).
	CompileTimeout Duration `json:"compile_timeout,omitempty"`
	// Fuel is the per-compile deterministic step budget of the resource
	// governor (0 disables). Verdict-affecting: it is part of the JSON
	// submission surface, ships to fabric workers, and folds into the
	// campaign fingerprint, so a resumed or sharded campaign cannot mix
	// budgets.
	Fuel int64 `json:"fuel,omitempty"`
	// MaxTypeDepth caps the governor's recursion depth for type-relation
	// and substitution walks (0 with fuel set = governor default).
	MaxTypeDepth int `json:"max_depth,omitempty"`
	// StressEvery makes every StressEvery-th unit (keyed by seed) a
	// pathological stress program exercising the governor (0 disables).
	StressEvery int `json:"stress_every,omitempty"`
	// Synth enables API-driven synthesis (Thalia mode): units are built
	// bottom-up from API signatures instead of top-down from the type
	// grammar, and judged as the Synthesized input kind. With no
	// SynthEvery, every unit is synthesized. Verdict-affecting: part of
	// the JSON submission surface, ships to fabric workers inside the
	// lease config, and folds into the campaign fingerprint.
	Synth bool `json:"synth,omitempty"`
	// SynthEvery synthesizes every SynthEvery-th unit (keyed by seed,
	// like StressEvery) and leaves the rest to the generator, so one
	// campaign mixes input kinds deterministically. Implies Synth.
	// A seed claimed by the synthesizer is synthesized even when the
	// stress cadence also selects it.
	SynthEvery int `json:"synth_every,omitempty"`
	// SynthCorpus is the path of a JSON API-corpus document for the
	// synthesizer; empty means the built-in corpus (synthetic stdlib +
	// signatures mined from the paper-bug regression programs).
	SynthCorpus string `json:"synth_corpus,omitempty"`
	// Retries bounds transient-fault compile retries.
	Retries int `json:"retries,omitempty"`
	// Chaos injects seeded faults at this rate (0 disables).
	Chaos float64 `json:"chaos,omitempty"`
	// Shard, when set, restricts the campaign to global units [Lo, Hi)
	// of the Programs-unit campaign the rest of the config describes:
	// the fabric coordinator leases one shard per submission.
	Shard *ShardRange `json:"shard,omitempty"`

	// Process-local settings, not part of the submission surface.
	StateDir  string        `json:"-"`
	Resume    bool          `json:"-"`
	Stats     bool          `json:"-"`
	DebugAddr string        `json:"-"`
	Heartbeat time.Duration `json:"-"`

	// Fabric settings (distributed sharded campaigns), also
	// process-local: the coordinator owns the topology, the submission
	// JSON the workers receive describes only the campaign itself.
	Shards        int           `json:"-"`
	FabricState   string        `json:"-"`
	WorkerBin     string        `json:"-"`
	FabricProcs   int           `json:"-"`
	FabricWorkers string        `json:"-"`
	FabricTimeout time.Duration `json:"-"`
}

// ShardRange is one fabric lease: shard Index, its Attempt number
// (starting at 0), and its global unit range [Lo, Hi).
type ShardRange struct {
	Index   int `json:"index"`
	Attempt int `json:"attempt"`
	Lo      int `json:"lo"`
	Hi      int `json:"hi"`
}

// NewConfig returns the defaults both CLIs and the server share:
// 10-second compile watchdog, 2 retries, 200 programs.
func NewConfig() *Config {
	return &Config{
		Programs:       200,
		CompileTimeout: Duration(10 * time.Second),
		Retries:        2,
	}
}

// RegisterCampaignFlags registers the shared campaign flags on fs,
// with the config's current values as defaults — callers adjust
// defaults (e.g. a different program count) by setting fields before
// registering.
func (c *Config) RegisterCampaignFlags(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "seed", c.Seed, "base seed")
	fs.IntVar(&c.Programs, "n", c.Programs, "number of generated programs")
	fs.IntVar(&c.Workers, "workers", c.Workers, "pipeline workers per stage (0 = GOMAXPROCS)")
	fs.StringVar(&c.Oracle, "oracle", c.Oracle, "test oracle: ground-truth (derivation fixes the expected verdict) or differential (cross-compiler vote comparison + translator conformance)")
	fs.BoolVar(&c.Stats, "stats", c.Stats, "print per-stage pipeline statistics")
	fs.DurationVar((*time.Duration)(&c.CompileTimeout), "compile-timeout", time.Duration(c.CompileTimeout), "per-compile watchdog budget (0 disables)")
	fs.Int64Var(&c.Fuel, "fuel", c.Fuel, "deterministic per-compile step budget; exhaustion is a reportable result (0 disables)")
	fs.IntVar(&c.MaxTypeDepth, "max-depth", c.MaxTypeDepth, "recursion-depth cap for type relations (0 with -fuel = governor default)")
	fs.IntVar(&c.StressEvery, "stress-every", c.StressEvery, "make every Nth unit a pathological governor-stress program (0 disables)")
	fs.BoolVar(&c.Synth, "synth", c.Synth, "synthesize units bottom-up from API signatures (Thalia mode) instead of generating from the grammar")
	fs.IntVar(&c.SynthEvery, "synth-every", c.SynthEvery, "synthesize every Nth unit (keyed by seed) and generate the rest; implies -synth (0 = all units when -synth is set)")
	fs.StringVar(&c.SynthCorpus, "synth-corpus", c.SynthCorpus, "JSON API-corpus document for -synth (empty = built-in corpus)")
	fs.IntVar(&c.Retries, "retries", c.Retries, "max retries for transient compile faults")
	fs.Float64Var(&c.Chaos, "chaos", c.Chaos, "inject seeded faults at this rate (0 disables; exercises the harness)")
	fs.StringVar(&c.StateDir, "state", c.StateDir, "state directory for durable campaigns (journal, bug corpus)")
	fs.BoolVar(&c.Resume, "resume", c.Resume, "resume the campaign recorded in -state instead of starting fresh")
	fs.StringVar(&c.DebugAddr, "debug-addr", c.DebugAddr, "serve /metrics, /events, and /debug/pprof on this address (e.g. 127.0.0.1:6060; :0 picks a free port)")
	fs.DurationVar(&c.Heartbeat, "heartbeat", c.Heartbeat, "print a one-line progress summary at this interval (0 disables)")
}

// UnreadFlags returns the flags set on fs that reads rejects, with
// their leading dash, so a front end can refuse a flag its command
// would silently ignore.
func UnreadFlags(fs *flag.FlagSet, reads func(name string) bool) []string {
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !reads(f.Name) {
			unread = append(unread, "-"+f.Name)
		}
	})
	return unread
}

// RegisterFabricFlags registers the distributed-campaign flags: shard
// count, coordinator state, and the worker topology (spawned processes
// or attached addresses).
func (c *Config) RegisterFabricFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Shards, "shards", c.Shards, "shard the campaign across fabric workers (0 = single process)")
	fs.StringVar(&c.FabricState, "fabric-state", c.FabricState, "coordinator scratch directory (worker state, fabric fault ledger)")
	fs.StringVar(&c.WorkerBin, "worker-bin", c.WorkerBin, "cmd/server binary to spawn local workers from")
	fs.IntVar(&c.FabricProcs, "fabric-procs", c.FabricProcs, "worker processes to spawn (0 = one per shard, capped at 8)")
	fs.StringVar(&c.FabricWorkers, "fabric-workers", c.FabricWorkers, "attach these running workers (comma-separated http addresses) instead of spawning")
	fs.DurationVar(&c.FabricTimeout, "fabric-timeout", c.FabricTimeout, "per-call coordinator→worker budget (0 = 3s)")
}

// ResolveCompilers maps the configured compiler names to the simulated
// compilers; empty means all three.
func (c *Config) ResolveCompilers() ([]*compilers.Compiler, error) {
	if len(c.Compilers) == 0 {
		return compilers.All(), nil
	}
	byName := map[string]*compilers.Compiler{}
	for _, comp := range compilers.All() {
		byName[comp.Name()] = comp
	}
	var out []*compilers.Compiler
	for _, name := range c.Compilers {
		comp := byName[name]
		if comp == nil {
			return nil, fmt.Errorf("cli: unknown compiler %q (have groovyc, kotlinc, javac)", name)
		}
		out = append(out, comp)
	}
	return out, nil
}

// HarnessOptions builds the resilient-harness configuration: the
// shared breaker threshold of 10, and the double-compile probe
// whenever chaos is on.
func (c *Config) HarnessOptions() harness.Options {
	return harness.Options{
		Timeout:          time.Duration(c.CompileTimeout),
		Retries:          c.Retries,
		Seed:             c.Seed,
		Fuel:             c.Fuel,
		MaxDepth:         c.MaxTypeDepth,
		BreakerThreshold: 10,
		DoubleCompile:    c.Chaos > 0,
	}
}

// ChaosOptions builds the fault-injection configuration, nil when
// chaos is off.
func (c *Config) ChaosOptions() *harness.ChaosOptions {
	if c.Chaos <= 0 {
		return nil
	}
	return &harness.ChaosOptions{
		Seed:          c.Seed,
		PanicRate:     c.Chaos,
		HangRate:      c.Chaos,
		TransientRate: c.Chaos,
		FlakyRate:     c.Chaos,
	}
}

// CampaignOptions builds campaign.Options from the config. The
// observability fields (Metrics, Trace, Gate) stay nil — callers wire
// those per process or per campaign.
//
// A shard config runs the global campaign restricted to [Lo, Hi): the
// base seed shifts by Lo so unit seeds stay global, while the harness
// and chaos seeds keep the global Seed, so every per-unit decision
// (injected faults, retry jitter, flaky probes) is the one the
// single-process run makes for that unit.
func (c *Config) CampaignOptions() (campaign.Options, error) {
	comps, err := c.ResolveCompilers()
	if err != nil {
		return campaign.Options{}, err
	}
	mode, err := campaign.ParseOracleMode(c.Oracle)
	if err != nil {
		return campaign.Options{}, err
	}
	gen := generator.DefaultConfig()
	gen.Stress.Every = c.StressEvery
	seed, programs := c.Seed, c.Programs
	if sh := c.Shard; sh != nil {
		seed, programs = c.Seed+int64(sh.Lo), sh.Hi-sh.Lo
	}
	return campaign.Options{
		Seed:      seed,
		Programs:  programs,
		Workers:   c.Workers,
		Compilers: comps,
		Oracle:    mode,
		GenConfig: gen,
		Synth:     c.SynthConfig(),
		Mutate:    !c.NoMutate,
		Harness:   c.HarnessOptions(),
		Chaos:     c.ChaosOptions(),
		StateDir:  c.StateDir,
		Resume:    c.Resume,
	}, nil
}

// SynthConfig derives the synthesis configuration from the flag
// surface: -synth-every N sets the cadence outright, bare -synth means
// every unit, and neither disables synthesis.
func (c *Config) SynthConfig() apisynth.Config {
	every := 0
	switch {
	case c.SynthEvery > 0:
		every = c.SynthEvery
	case c.Synth:
		every = 1
	}
	return apisynth.Config{Every: every, Corpus: c.SynthCorpus}
}

// Validate rejects configs a server should not admit: nonsensical
// sizes, rates and shard ranges. maxPrograms bounds the units the
// campaign runs — a shard's range, not the global count. The CLIs rely
// on flag parsing for the same bounds.
func (c *Config) Validate(maxPrograms, maxWorkers int) error {
	if c.Programs <= 0 {
		return fmt.Errorf("cli: programs must be positive, got %d", c.Programs)
	}
	runs := c.Programs
	if sh := c.Shard; sh != nil {
		if sh.Lo < 0 || sh.Lo >= sh.Hi || sh.Hi > c.Programs {
			return fmt.Errorf("cli: shard range [%d,%d) is not within [0,%d)", sh.Lo, sh.Hi, c.Programs)
		}
		runs = sh.Hi - sh.Lo
	}
	if maxPrograms > 0 && runs > maxPrograms {
		return fmt.Errorf("cli: programs %d exceeds the limit of %d", runs, maxPrograms)
	}
	if c.Workers < 0 {
		return fmt.Errorf("cli: workers must be non-negative, got %d", c.Workers)
	}
	if maxWorkers > 0 && c.Workers > maxWorkers {
		return fmt.Errorf("cli: workers %d exceeds the limit of %d", c.Workers, maxWorkers)
	}
	if c.Chaos < 0 || c.Chaos > 1 {
		return fmt.Errorf("cli: chaos rate must be in [0, 1], got %g", c.Chaos)
	}
	if time.Duration(c.CompileTimeout) < 0 {
		return fmt.Errorf("cli: compile timeout must be non-negative")
	}
	if c.Retries < 0 {
		return fmt.Errorf("cli: retries must be non-negative, got %d", c.Retries)
	}
	if c.Fuel < 0 {
		return fmt.Errorf("cli: fuel must be non-negative, got %d", c.Fuel)
	}
	if c.MaxTypeDepth < 0 {
		return fmt.Errorf("cli: max type depth must be non-negative, got %d", c.MaxTypeDepth)
	}
	if c.StressEvery < 0 {
		return fmt.Errorf("cli: stress cadence must be non-negative, got %d", c.StressEvery)
	}
	if c.SynthEvery < 0 {
		return fmt.Errorf("cli: synth cadence must be non-negative, got %d", c.SynthEvery)
	}
	if c.SynthCorpus != "" && !c.SynthConfig().Enabled() {
		return fmt.Errorf("cli: -synth-corpus requires -synth or -synth-every")
	}
	if _, err := c.ResolveCompilers(); err != nil {
		return err
	}
	if _, err := campaign.ParseOracleMode(c.Oracle); err != nil {
		return err
	}
	return nil
}

// Observability bundles a process's debug instruments: the registry
// and trace shared by campaign, harness, and pipeline, plus the HTTP
// debug server when one was requested.
type Observability struct {
	Registry *metrics.Registry
	Trace    *metrics.Trace
	Server   *metrics.Server
}

// StartObservability wires the registry, trace, and debug server the
// config asks for, announcing the server's address on w (the line CI's
// observability smoke parses). With no -debug-addr and no -heartbeat
// it returns an empty Observability whose nil fields disable
// instrumentation.
func (c *Config) StartObservability(w io.Writer) (*Observability, error) {
	obs := &Observability{}
	if c.DebugAddr == "" && c.Heartbeat <= 0 {
		return obs, nil
	}
	obs.Registry = metrics.NewRegistry()
	obs.Trace = metrics.NewTrace(4096)
	// Make the SuperChain cyclic-climb cap observable: the types package
	// cannot import metrics, so it exposes a hook the process wires here.
	truncations := obs.Registry.Counter("types.superchain_truncations")
	trace := obs.Trace
	types.SetSuperChainTruncationHook(func() {
		truncations.Inc()
		trace.Emit(metrics.Event{Kind: "truncation", Detail: "SuperChain cyclic-climb cap hit"})
	})
	if c.DebugAddr != "" {
		srv, err := metrics.Serve(c.DebugAddr, obs.Registry, obs.Trace)
		if err != nil {
			return nil, fmt.Errorf("debug server: %w", err)
		}
		obs.Server = srv
		fmt.Fprintf(w, "debug server listening on http://%s\n", srv.Addr())
	}
	return obs, nil
}

// PrintDifferential renders the differential oracle's findings on w —
// the distinct-disagreement summary and the cross-compiler conflict
// matrix; a no-op under the ground-truth oracle. CI's differential
// smoke greps the summary line.
func PrintDifferential(w io.Writer, report *campaign.Report) {
	if report.Opts.Oracle != campaign.Differential {
		return
	}
	fmt.Fprintf(w, "differential oracle: %d distinct disagreements\n\n", len(report.Disagreements))
	if len(report.Disagreements) > 0 {
		fmt.Fprintln(w, report.DiffSummary())
		fmt.Fprintln(w, report.DiffPairs())
	}
}

// PrintRecovery writes what a resumed run restored: the replayed unit
// count and every quarantined journal stretch, whose units re-ran; a
// no-op for a run that restored nothing.
func PrintRecovery(w io.Writer, report *campaign.Report) {
	if report == nil || !report.Recovery.Resumed {
		return
	}
	fmt.Fprintf(w, "resumed: %d units restored by journal replay\n", report.Recovery.Recovered)
	for _, c := range report.Recovery.Quarantined {
		fmt.Fprintf(w, "  quarantined %s\n", c)
	}
	fmt.Fprintln(w)
}

// Close shuts down the debug server, if one is running.
func (o *Observability) Close() {
	if o.Server != nil {
		o.Server.Close()
	}
}
