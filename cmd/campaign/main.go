// Command campaign regenerates the paper's evaluation tables and figures
// against the simulated compilers (see DESIGN.md for the experiment
// index). Each -fig value reproduces one artifact:
//
//	campaign -fig 7a|7b|7c   bug tables (campaign + ground truth)
//	campaign -fig 8          affected-versions histogram
//	campaign -fig 9          TEM/TOM coverage increase (RQ3)
//	campaign -fig 10         test-suite vs random coverage (RQ4)
//	campaign -fig synth      generated vs mutated vs synthesized coverage
//	campaign -fig all        everything
//
// -n scales the campaign size (default 400 programs); larger campaigns
// converge closer to the ground-truth catalogs. -workers sets the
// per-stage worker count of the streaming pipeline (0 = GOMAXPROCS) —
// results are identical for any value — and -stats prints where each
// run's time went, stage by stage.
//
// Every compile runs through the resilient harness: -compile-timeout
// bounds one compile (a hang becomes a reportable "hang" verdict),
// -retries bounds transient-fault retries, and -chaos RATE injects
// seeded panics/hangs/transient faults/flaky verdicts at the given rate
// to exercise those paths; the run then prints its fault ledger.
//
// -debug-addr ADDR serves live observability over HTTP while the
// campaign runs: /metrics (JSON registry snapshot: throughput, verdict
// counts, latency histograms, breaker states), /events (recent
// structured events), and the standard /debug/pprof profiling handlers.
// -heartbeat DUR prints a one-line progress summary (units/s, bugs
// found, breaker states) to stderr at that interval. Both are
// observation-only: reports are bit-for-bit identical with or without
// them.
//
// With -state DIR the campaign is durable: every aggregated unit is
// journaled in DIR, so a killed run resumes with -resume (journal
// replay) to exactly the report of an uninterrupted run. SIGINT/SIGTERM
// sync the journal and flush the partial figures before the nonzero
// exit. The state dir also accumulates a persistent bug corpus across
// campaigns.
//
// -report-json FILE writes the deterministic report document — the
// same bytes the fuzzing server's report endpoint serves — so CI can
// diff an in-process run against an HTTP-fetched one.
//
// -shards N runs the campaign figures sharded across fabric workers,
// spawned from -worker-bin or attached with -fabric-workers; the merged
// report is byte-identical to the single-process run.
//
// The coverage figures (9, 10, synth) run their own pipelines over
// -covn programs and read only -seed, -workers, -stats, -debug-addr and,
// for synth, -synth-corpus; the campaign figures (7a–8) read every flag
// but -covn, split by -shards: without it no fabric flag is read; with
// it -state, -resume, -heartbeat and (except under -fig all, whose
// coverage figures read it) -stats are not; and with -fabric-workers
// the spawn flags -worker-bin and -fabric-procs are not. A flag the
// chosen run does not read is an error, not silently ignored.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"strings"

	"repro/internal/apisynth"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/compilers"
	"repro/internal/fabric"
	"repro/internal/generator"
	"repro/internal/oracle"
)

func main() {
	cfg := cli.NewConfig()
	cfg.Programs = 400
	fig := flag.String("fig", "all", "figure to reproduce: 7a, 7b, 7c, 8, 9, 10, synth, all")
	covN := flag.Int("covn", 150, "programs for the coverage experiments")
	reportJSON := flag.String("report-json", "", "write the deterministic report document (JSON) to this file")
	cfg.RegisterCampaignFlags(flag.CommandLine)
	cfg.RegisterFabricFlags(flag.CommandLine)
	flag.Parse()
	if !figures[*fig] {
		fmt.Fprintf(os.Stderr, "unknown -fig %q (want 7a, 7b, 7c, 8, 9, 10, synth or all)\n", *fig)
		os.Exit(2)
	}
	if unread := cli.UnreadFlags(flag.CommandLine, func(name string) bool { return readsFlag(*fig, name, cfg) }); len(unread) > 0 {
		fmt.Fprintf(os.Stderr, "campaign -fig %s does not read %s\n", *fig, strings.Join(unread, " "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	obs, err := cfg.StartObservability(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer obs.Close()

	needCampaign := *fig != "9" && *fig != "10" && *fig != "synth"
	var report *campaign.Report
	if needCampaign && cfg.Shards > 0 {
		report = runFabric(ctx, cfg, obs, *reportJSON)
	} else if needCampaign {
		opts, err := cfg.CampaignOptions()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Metrics = obs.Registry
		opts.Trace = obs.Trace

		fmt.Printf("running campaign: %d programs + mutants against groovyc, kotlinc, javac...\n\n", cfg.Programs)
		c := campaign.New(opts)
		stopBeat := campaign.StartHeartbeat(os.Stderr, c.Status, cfg.Heartbeat)
		if err := c.Start(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(1)
		}
		report, err = c.Wait()
		stopBeat()
		cli.PrintRecovery(os.Stdout, report)
		writeReportDoc(report, *reportJSON)
		if err != nil {
			// The partial report is still a valid (if truncated) fold:
			// flush the figures and stats it supports — a durable run
			// has also just synced its journal for -resume — before
			// signalling the incomplete run.
			fmt.Fprintf(os.Stderr, "campaign aborted: %v\n", err)
			if report == nil {
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "partial report: %d distinct bugs over %d generated programs\n",
				report.TotalFound(), report.ProgramsRun[oracle.Generated])
			flushPartial(report, *fig, cfg.Stats)
			if cfg.StateDir != "" {
				fmt.Fprintf(os.Stderr, "state saved; resume with -state %s -resume\n", cfg.StateDir)
			}
			os.Exit(1)
		}
		fmt.Printf("found %d distinct bugs (TEM repairs: %d)\n\n", report.TotalFound(), report.TEMRepairs)
		cli.PrintDifferential(os.Stdout, report)
		if report.Faults.Faults() {
			fmt.Println(report.Faults)
		}
		printCorpus(report)
		if cfg.Stats {
			fmt.Println("pipeline stages:")
			fmt.Println(report.Stats)
		}
	}

	show := func(f string) bool { return *fig == f || *fig == "all" }

	if show("7a") {
		fmt.Println(report.Figure7a())
		a, _, _ := campaign.CatalogTables()
		fmt.Println(a)
	}
	if show("7b") {
		fmt.Println(report.Figure7b())
		_, b, _ := campaign.CatalogTables()
		fmt.Println(b)
	}
	if show("7c") {
		fmt.Println(report.Figure7c())
		_, _, c := campaign.CatalogTables()
		fmt.Println(c)
	}
	if show("8") {
		stable := map[string]int{}
		for _, c := range compilers.All() {
			stable[c.Name()] = len(c.Versions())
		}
		fmt.Println(report.Figure8(stable))
	}
	if show("9") {
		fmt.Println("Figure 9: coverage increase by TEM and TOM (RQ3)")
		rows, stats, err := campaign.RunMutationCoverageContext(ctx, compilers.All(), *covN, cfg.Seed, generator.DefaultConfig(), cfg.Workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverage experiment aborted: %v\n", err)
			os.Exit(1)
		}
		for _, cov := range rows {
			fmt.Println(cov)
		}
		if cfg.Stats {
			fmt.Println("pipeline stages:")
			fmt.Println(stats)
		}
	}
	if show("10") {
		fmt.Println("Figure 10: test-suite coverage plus random programs (RQ4)")
		rows, stats, err := campaign.RunSuiteCoverageContext(ctx, compilers.All(), *covN, cfg.Seed+5000, generator.DefaultConfig(), cfg.Workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverage experiment aborted: %v\n", err)
			os.Exit(1)
		}
		for _, cov := range rows {
			fmt.Println(cov)
		}
		if cfg.Stats {
			fmt.Println("pipeline stages:")
			fmt.Println(stats)
		}
	}
	if show("synth") {
		fmt.Println("Coverage by input kind: generated vs mutated vs synthesized")
		rows, stats, err := campaign.RunSynthCoverageContext(ctx, compilers.All(), *covN, cfg.Seed+9000,
			generator.DefaultConfig(), apisynth.Config{Corpus: cfg.SynthCorpus}, cfg.Workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coverage experiment aborted: %v\n", err)
			os.Exit(1)
		}
		for _, cov := range rows {
			fmt.Println(cov)
		}
		if cfg.Stats {
			fmt.Println("pipeline stages:")
			fmt.Println(stats)
		}
	}
	if report != nil && *fig == "all" {
		fmt.Println(report.VerdictSummary())
	}
}

// figures lists the -fig values.
var figures = map[string]bool{"7a": true, "7b": true, "7c": true, "8": true, "9": true, "10": true, "synth": true, "all": true}

// readsFlag reports whether a run of figure fig under cfg reads the
// named flag. The coverage figures read only the flags their pipelines
// take. The campaign figures read everything but -covn (-fig all reads
// -covn too), split by -shards: a single-process campaign reads no
// fabric flag; a sharded one reads none of the single-process
// durability and progress flags (the workers journal on their own, and
// the coordinator prints no stage table); and one attached to running
// workers with -fabric-workers reads none of the spawn flags.
func readsFlag(fig, name string, cfg *cli.Config) bool {
	switch fig {
	case "9", "10", "synth":
		switch name {
		case "fig", "covn", "seed", "workers", "stats", "debug-addr":
			return true
		case "synth-corpus":
			return fig == "synth"
		}
		return false
	}
	if name == "covn" && fig != "all" {
		return false
	}
	sharded := cfg.Shards > 0
	switch name {
	case "worker-bin", "fabric-procs":
		return sharded && cfg.FabricWorkers == ""
	case "fabric-state", "fabric-workers", "fabric-timeout":
		return sharded
	case "state", "resume", "heartbeat":
		return !sharded
	case "stats":
		return !sharded || fig == "all"
	}
	return true
}

// runFabric runs the campaign sharded across fabric workers — spawned
// cmd/server processes, or running ones attached with -fabric-workers —
// and returns the merged report, which is byte-identical to the
// single-process run of the same flags. On degradation (shards
// abandoned after worker exhaustion) it flushes the partial report and
// exits nonzero, like an aborted single-process campaign.
func runFabric(ctx context.Context, cfg *cli.Config, obs *cli.Observability, reportJSON string) *campaign.Report {
	var clients []*fabric.Client
	if cfg.FabricWorkers != "" {
		for i, addr := range strings.Split(cfg.FabricWorkers, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if !strings.Contains(addr, "://") {
				addr = "http://" + addr
			}
			clients = append(clients, fabric.NewClient(fmt.Sprintf("w%d", i), addr, cfg.FabricTimeout))
		}
		if len(clients) == 0 {
			fmt.Fprintln(os.Stderr, "fabric: -fabric-workers lists no usable addresses")
			os.Exit(2)
		}
	} else {
		if cfg.WorkerBin == "" {
			fmt.Fprintln(os.Stderr, "fabric: -shards needs -worker-bin to spawn workers or -fabric-workers to attach them")
			os.Exit(2)
		}
		procs := cfg.FabricProcs
		if procs <= 0 {
			procs = cfg.Shards
			if procs > 8 {
				procs = 8
			}
		}
		workers, stopWorkers, err := fabric.SpawnWorkers(fabric.SpawnOptions{
			Bin:         cfg.WorkerBin,
			Count:       procs,
			Dir:         cfg.FabricState,
			CallTimeout: cfg.FabricTimeout,
			Announce:    os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabric: %v\n", err)
			os.Exit(1)
		}
		defer stopWorkers()
		clients = fabric.Clients(workers)
	}

	fmt.Printf("running sharded campaign: %d programs over %d shards on %d workers...\n\n",
		cfg.Programs, cfg.Shards, len(clients))
	res, err := fabric.Run(ctx, fabric.Options{
		Config:      *cfg,
		Shards:      cfg.Shards,
		Workers:     clients,
		CallTimeout: cfg.FabricTimeout,
		StateDir:    cfg.FabricState,
		Metrics:     obs.Registry,
		Trace:       obs.Trace,
	})
	if res == nil {
		fmt.Fprintf(os.Stderr, "fabric: %v\n", err)
		os.Exit(1)
	}
	report := res.Report
	writeReportDoc(report, reportJSON)
	if res.Faults.Faults() {
		fmt.Println(res.Faults)
		fmt.Println()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharded campaign degraded: %v\n", err)
		fmt.Fprintf(os.Stderr, "partial report: %d distinct bugs over %d generated programs\n",
			report.TotalFound(), report.ProgramsRun[oracle.Generated])
		flushPartial(report, "all", false)
		os.Exit(1)
	}
	fmt.Printf("found %d distinct bugs (TEM repairs: %d)\n\n", report.TotalFound(), report.TEMRepairs)
	cli.PrintDifferential(os.Stdout, report)
	if report.Faults.Faults() {
		fmt.Println(report.Faults)
	}
	return report
}

// writeReportDoc writes the deterministic report document, encoded
// exactly as the fuzzing server's report endpoint encodes it, so the
// two are diffable byte for byte.
func writeReportDoc(report *campaign.Report, path string) {
	if path == "" || report == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report-json: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report.Doc()); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "report-json: %v\n", err)
		os.Exit(1)
	}
}

// printCorpus summarizes the cross-campaign bug corpus of a durable run.
func printCorpus(r *campaign.Report) {
	if r.Corpus == nil {
		return
	}
	fmt.Printf("bug corpus: %d distinct bugs over %d campaigns\n\n",
		len(r.Corpus.Bugs), r.Corpus.Campaigns)
}

// flushPartial prints the figures and statistics an aborted run can
// still support, so an interrupted campaign leaves its evidence behind
// instead of only an exit code.
func flushPartial(report *campaign.Report, fig string, stats bool) {
	show := func(f string) bool { return fig == f || fig == "all" }
	if show("7a") {
		fmt.Println(report.Figure7a())
	}
	if show("7b") {
		fmt.Println(report.Figure7b())
	}
	if show("7c") {
		fmt.Println(report.Figure7c())
	}
	if show("8") {
		stable := map[string]int{}
		for _, c := range compilers.All() {
			stable[c.Name()] = len(c.Versions())
		}
		fmt.Println(report.Figure8(stable))
	}
	if report.Faults.Faults() {
		fmt.Println(report.Faults)
	}
	if stats && report.Stats != nil {
		fmt.Println("pipeline stages:")
		fmt.Println(report.Stats)
	}
}
