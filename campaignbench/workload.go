package main

import (
	"fmt"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/cli"
)

// workload is one named campaign configuration. Every measured campaign
// (a round) of a workload runs programs units through the public
// campaign API, configured from cli.NewConfig() defaults plus the
// workload's own settings. README.md gives the reason for each.
type workload struct {
	name string
	// programs is the unit count of one round.
	programs int
	// minRounds is how many rounds a run always completes, however short
	// its time budget: findings are counted over exactly these rounds, so
	// they repeat for a seed.
	minRounds int
	// sample is how many units of round 0 the traced replay re-runs
	// layer by layer.
	sample int
	// durable workloads get a fresh state directory per campaign.
	durable bool
	// configure applies the workload's settings on top of the defaults.
	configure func(c *cli.Config)
}

var workloads = []workload{
	{
		name:      "fuzz-mutate",
		programs:  20,
		minRounds: 15,
		sample:    8,
		configure: func(*cli.Config) {},
	},
	{
		name:      "synth-check",
		programs:  2500,
		minRounds: 2,
		sample:    48,
		configure: func(c *cli.Config) { c.Synth = true },
	},
	{
		name:      "diff-durable",
		programs:  160,
		minRounds: 5,
		sample:    16,
		durable:   true,
		configure: func(c *cli.Config) {
			c.Oracle = "differential"
			c.NoMutate = true
			c.Fuel = 30000
			c.StressEvery = 4
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// workers is the closed-loop width: one pipeline worker per stage and
// CPU, at most two, so the load is the same on any larger machine.
func workers() int {
	return min(runtime.NumCPU(), 2)
}

// roundSeed is the first unit seed of round r of a run seeded seed. Runs
// with different seeds draw disjoint unit ranges.
func (w workload) roundSeed(seed int64, r int) int64 {
	return seed*1_000_000 + int64(r*w.programs)
}

// options builds the options of one campaign of programs units from
// unit seed first. A durable workload gets a fresh state directory from
// dirs, which the caller removes when the campaign is done.
func (w workload) options(first int64, programs int, dirs *scratch) (campaign.Options, error) {
	c := cli.NewConfig()
	w.configure(c)
	c.Seed = first
	c.Programs = programs
	c.Workers = workers()
	if w.durable {
		dir, err := dirs.fresh()
		if err != nil {
			return campaign.Options{}, err
		}
		c.StateDir = dir
	}
	if err := c.Validate(0, 0); err != nil {
		return campaign.Options{}, err
	}
	return c.CampaignOptions()
}
