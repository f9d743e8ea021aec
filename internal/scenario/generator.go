package scenario

import (
	"fmt"

	"zerosum/internal/sim"
)

// JobSpec is one sampled job: everything the scheduler and the workload
// executor need, fixed at generation time so the schedule is a pure
// function of (Config, seed).
type JobSpec struct {
	// ID is the job's stable identifier ("<scenario>-j<NNN>").
	ID string `json:"id"`
	// Index is the job's position in submission order (0-based).
	Index int `json:"index"`
	// Queue names the scheduling queue the job was submitted to.
	Queue string `json:"queue"`
	// Arrival is the submission time on the scenario clock.
	Arrival sim.Time `json:"arrival_ns"`
	// Duration is the occupancy the job needs; preemption pauses it and
	// the remainder runs after readmission.
	Duration sim.Time `json:"duration_ns"`
	// Ranks is the number of MPI ranks (processes).
	Ranks int `json:"ranks"`
	// Threads is the worker-thread (LWP) count per rank.
	Threads int `json:"threads"`
	// CPUsPerRank is the CPU slots each rank occupies on its node.
	CPUsPerRank int `json:"cpus_per_rank"`
	// GPUsPerRank is the GPU devices each rank demands (0 = CPU-only).
	GPUsPerRank int `json:"gpus_per_rank"`
	// App is the proxy application profile (AppMiniQMC, AppPIC, AppStall).
	App string `json:"app"`
	// Seed is the job-private RNG seed for workload execution.
	Seed uint64 `json:"seed"`
}

// TotalCPUs is the job's cluster-wide CPU-slot demand.
func (s JobSpec) TotalCPUs() int { return s.Ranks * s.CPUsPerRank }

// TotalGPUs is the job's cluster-wide GPU demand.
func (s JobSpec) TotalGPUs() int { return s.Ranks * s.GPUsPerRank }

// Generator samples job specs from a seeded RNG. Draw order is part of
// the wire-in-stone replay contract: per job it is inter-arrival, queue,
// duration, ranks, threads, GPU coin (+count), app, then the private seed.
type Generator struct {
	cfg Config
	rng *sim.RNG
}

// NewGenerator validates cfg and builds a generator for the given seed.
func NewGenerator(cfg Config, seed uint64) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg.withDefaults(), rng: sim.NewRNG(seed)}, nil
}

// Generate samples cfg.Jobs specs in arrival order. Calling it again
// continues the stream with more jobs (fresh indices, same RNG).
func (g *Generator) Generate() []JobSpec {
	c := g.cfg
	specs := make([]JobSpec, 0, c.Jobs)
	var clock sim.Time
	for i := 0; i < c.Jobs; i++ {
		clock += sim.FromSeconds(g.rng.Exp(c.ArrivalMeanSec))
		spec := JobSpec{
			ID:      fmt.Sprintf("%s-j%03d", c.Name, i),
			Index:   i,
			Queue:   g.pickQueue(),
			Arrival: clock,
			Duration: sim.FromSeconds(c.DurationMinSec) +
				sim.FromSeconds(g.rng.Exp(c.DurationMeanSec)),
			Ranks:   1 + g.rng.Intn(c.MaxRanks),
			Threads: 1 + g.rng.Intn(c.MaxThreadsPerRank),
		}
		if c.CPUsPerRank > 0 {
			spec.CPUsPerRank = c.CPUsPerRank
		} else {
			spec.CPUsPerRank = spec.Threads
			if spec.CPUsPerRank > c.CPUsPerNode {
				spec.CPUsPerRank = c.CPUsPerNode
			}
		}
		// The GPU coin always burns one draw so the replay stream stays
		// aligned whether or not the job wins a device.
		if g.rng.Bool(c.GPUFrac) && c.GPUsPerNode > 0 {
			spec.GPUsPerRank = 1 + g.rng.Intn(c.GPUsPerRankMax)
		}
		spec.App = g.pickApp()
		spec.Seed = g.rng.Uint64()
		specs = append(specs, spec)
	}
	return specs
}

func (g *Generator) pickQueue() string {
	var total float64
	for _, q := range g.cfg.Queues {
		total += q.Weight
	}
	x := g.rng.Float64() * total
	for _, q := range g.cfg.Queues {
		if x < q.Weight {
			return q.Name
		}
		x -= q.Weight
	}
	return g.cfg.Queues[len(g.cfg.Queues)-1].Name
}

func (g *Generator) pickApp() string {
	var total float64
	for _, a := range g.cfg.AppMix {
		total += a.Weight
	}
	x := g.rng.Float64() * total
	for _, a := range g.cfg.AppMix {
		if x < a.Weight {
			return a.App
		}
		x -= a.Weight
	}
	return g.cfg.AppMix[len(g.cfg.AppMix)-1].App
}
