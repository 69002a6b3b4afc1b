package main

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// workload is one benchmark input: an endless, seed-determined sequence of
// rounds. A round is the unit handed to the simulator at once — one
// experiment.RunAll grid for the parallel workload, one experiment.Run
// scenario for the serial ones. The benchmark is closed-loop: a round
// starts when the previous one has finished.
type workload struct {
	name string
	// scenarios describes one round for the provenance line.
	scenarios string
	// workers is the RunAll worker count; 1 runs rounds serially through
	// experiment.Run.
	workers int
	// census is the number of leading rounds whose exact counts form the
	// deterministic census and are re-run by the verification pass.
	census int
	// round builds round i's setups; seeds derive from the workload seed
	// and i, so every round simulates different VM inputs.
	round func(seed uint64, i int, dur simtime.Duration) []experiment.Setup
}

// scenarioDur is the simulated length of one scenario, the length of the
// repository's BenchmarkSimulator_EventThroughput scenario.
const scenarioDur = simtime.Second

// Why each workload was chosen is recorded in README.md and
// BENCHMARK.json.
var workloads = []workload{
	{
		name:      "lock-sweep",
		scenarios: "exim+swaptions, 12 pCPUs, {baseline, static-1, static-2, static-3, dynamic}, one RunAll grid per round",
		workers:   2,
		census:    2,
		round:     lockSweepRound,
	},
	{
		name:      "tlb-baseline",
		scenarios: "dedup+swaptions, 12 pCPUs, baseline (ModeOff), serial",
		workers:   1,
		census:    8,
		round:     tlbBaselineRound,
	},
	{
		name:      "serve-observed",
		scenarios: "serve (12 vCPUs, 60000 req/s Poisson, ring 48)+swaptions, 12 pCPUs, static-1, observer on, serial",
		workers:   1,
		census:    4,
		round:     serveObservedRound,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// vmSeed derives VM slot vm's seed for round i from the workload seed
// (splitmix64 finalizer over the combined key).
func vmSeed(seed uint64, i, vm int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(vm+1)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func offConfig() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.ModeOff
	return c
}

// lockSweepConfigs is the mechanism axis of every lock-sweep grid.
var lockSweepConfigs = []core.Config{
	offConfig(),
	core.StaticConfig(1),
	core.StaticConfig(2),
	core.StaticConfig(3),
	core.DefaultConfig(),
}

func lockSweepRound(seed uint64, i int, dur simtime.Duration) []experiment.Setup {
	grid := make([]experiment.Setup, len(lockSweepConfigs))
	for c, cc := range lockSweepConfigs {
		grid[c] = experiment.Setup{
			VMs: []experiment.VMSpec{
				{Name: "exim", App: "exim", Seed: vmSeed(seed, i, 0)},
				{Name: "swaptions", App: "swaptions", Seed: vmSeed(seed, i, 1)},
			},
			Core:         cc,
			Duration:     dur,
			StaggerStart: true,
		}
	}
	return grid
}

func tlbBaselineRound(seed uint64, i int, dur simtime.Duration) []experiment.Setup {
	return []experiment.Setup{{
		VMs: []experiment.VMSpec{
			{Name: "dedup", App: "dedup", Seed: vmSeed(seed, i, 0)},
			{Name: "swaptions", App: "swaptions", Seed: vmSeed(seed, i, 1)},
		},
		Core:         offConfig(),
		Duration:     dur,
		StaggerStart: true,
	}}
}

func serveObservedRound(seed uint64, i int, dur simtime.Duration) []experiment.Setup {
	return []experiment.Setup{{
		VMs: []experiment.VMSpec{
			{
				Name: "serve", VCPUs: 12,
				Serve: &experiment.ServeSpec{RatePerSec: 60000, RingCap: 48, Seed: vmSeed(seed, i, 0)},
			},
			{Name: "swaptions", App: "swaptions", Seed: vmSeed(seed, i, 1)},
		},
		Core:         core.StaticConfig(1),
		Duration:     dur,
		StaggerStart: true,
		Obs:          &obs.Config{},
	}}
}
