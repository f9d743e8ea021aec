// Package experiments defines one runnable reproduction for every table and
// figure in the paper's evaluation (§4): Listing 1 (topology output),
// Listing 2 (full report with GPU offload), Tables 1-3 (the three srun
// configurations of miniQMC), Figure 5 (512-rank communication heatmap),
// Figures 6-7 (LWP/HWT utilization time series) and Figure 8 (overhead
// distributions with Welch's t-test). cmd/experiments, the benchmark
// harness and the integration tests all drive these same definitions.
package experiments

import (
	"fmt"
	"math"

	"zerosum/internal/analysis"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/openmp"
	"zerosum/internal/sched"
	"zerosum/internal/sim"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
	"zerosum/internal/workload"
)

// Paper reference values (from the paper text and tables).
const (
	PaperT1Seconds = 63.67
	PaperT2Seconds = 27.33
	PaperT3Seconds = 27.40
	PaperL2Seconds = 210.878

	PaperF8Base1T     = 27.3396
	PaperF8With1T     = 27.3395
	PaperF8P1T        = 0.998
	PaperF8Base2T     = 57.0657
	PaperF8With2T     = 57.3409
	PaperF8P2T        = 0.0006
	PaperF8Overhead2T = 0.2752 // seconds, ~0.48%
)

// miniQMC builds the calibrated workload at the given scale (1.0 = paper
// scale, ~27 s for the -c7 configuration).
func miniQMC(scale float64) *workload.MiniQMC {
	mq := workload.DefaultMiniQMC()
	steps := int(math.Round(float64(mq.Steps) * scale))
	if steps < 4 {
		steps = 4
	}
	mq.Steps = steps
	return mq
}

// monitorOn returns the standard 1 Hz monitoring configuration.
func monitorOn() workload.MonitorConfig {
	return workload.MonitorConfig{Enabled: true, Period: sim.Second, CPU: -1}
}

// TableResult is the outcome of one table experiment.
type TableResult struct {
	Label        string
	Command      string
	WallSeconds  float64
	PaperSeconds float64
	Snapshot     core.Snapshot // rank 0
	Result       *workload.Result
}

// table runs miniQMC, monitored, under one of the paper's three
// configurations. streamFor, when non-nil, supplies the ranks' streams.
func table(n int, scale float64, seed uint64, streamFor func(rank int, node string) *export.Stream) (*TableResult, error) {
	cfg := workload.Config{
		Machine: topology.Frontier,
		App:     miniQMC(scale),
		Monitor: monitorOn(),
		Seed:    seed,
	}
	cfg.Monitor.StreamFor = streamFor
	var label string
	var paper float64
	switch n {
	case 1:
		label = "Table 1: srun -n8 (default)"
		paper = PaperT1Seconds
		cfg.Srun = slurm.Options{NTasks: 8}
		cfg.OMP = openmp.Env{NumThreads: 7}
		// CFS under heavy oversubscription effectively time-slices at
		// tens of microseconds (wakeup preemption + scaled granularity);
		// this is what produces the paper's ~3x10^5 nvctx per thread.
		cfg.Sched = sched.Params{Quantum: 25 * sim.Microsecond, Timeslice: 25 * sim.Microsecond}
	case 2:
		label = "Table 2: srun -n8 -c7"
		paper = PaperT2Seconds
		cfg.Srun = slurm.Options{NTasks: 8, CoresPerTask: 7}
		cfg.OMP = openmp.Env{NumThreads: 7}
		// Unbound threads: Linux's imperfect wake placement migrates them
		// occasionally, the paper's "all migrated at least once".
		cfg.Sched = sched.Params{WakeAffinityNoise: 0.05}
	case 3:
		label = "Table 3: srun -n8 -c7 + OMP_PROC_BIND=spread OMP_PLACES=cores"
		paper = PaperT3Seconds
		cfg.Srun = slurm.Options{NTasks: 8, CoresPerTask: 7}
		cfg.OMP = openmp.Env{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores}
	default:
		return nil, fmt.Errorf("experiments: no table %d", n)
	}
	res, err := workload.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &TableResult{
		Label:        label,
		Command:      cfg.Srun.CommandLine("zerosum-mpi miniqmc"),
		WallSeconds:  res.WallSeconds,
		PaperSeconds: paper * scale,
		Snapshot:     res.Ranks[0].Snapshot,
		Result:       res,
	}, nil
}

// Table1 reproduces the default-configuration disaster.
func Table1(scale float64, seed uint64) (*TableResult, error) { return table(1, scale, seed, nil) }

// Table2 reproduces the -c7 configuration.
func Table2(scale float64, seed uint64) (*TableResult, error) { return table(2, scale, seed, nil) }

// Table3 reproduces the -c7 + spread/cores configuration.
func Table3(scale float64, seed uint64) (*TableResult, error) { return table(3, scale, seed, nil) }

// Listing1 renders the paper's hwloc topology listing for the 4-core test
// laptop.
func Listing1() string {
	return "HWLOC Node topology:\n" + topology.Lstopo(topology.Laptop4Core())
}

// Listing2 runs the GPU target-offload miniQMC (8 ranks, 4 threads, one
// GCD per rank, spread/cores binding) and returns the rank-0 report data.
func Listing2(scale float64, seed uint64) (*TableResult, error) {
	mq := miniQMC(scale)
	mq.Threads = 4
	// The offload variant is host-dominated, matching the listing's
	// numbers: walkers spend ~64% in user code and ~12.5% in syscalls
	// (launch/transfer/sync) with ~1700 offload cycles per second per
	// thread (vctx 365k over 211 s), while the GCD is only ~15% busy
	// (four threads x ~1700 x 25 us kernels).
	mq.Offload = &workload.Offload{
		LaunchesPerStep: 3800,
		KernelTime:      25 * sim.Microsecond,
		XferBytes:       64 << 10,
		LaunchCPU:       440 * sim.Microsecond,
		LaunchSysFrac:   0.165,
		VRAMBytes:       4742 << 20, // the listing's ~4.7 GB VRAM average
	}
	cfg := workload.Config{
		Machine: topology.Frontier,
		App:     mq,
		Srun: slurm.Options{NTasks: 8, CoresPerTask: 7, GPUsPerTask: 1,
			GPUBind: slurm.GPUBindClosest},
		OMP:     openmp.Env{NumThreads: 4, Bind: openmp.BindSpread, Places: openmp.PlacesCores},
		Monitor: monitorOn(),
		// Offload cycles are ~0.6 ms; the accounting quantum must resolve
		// them or sleep/launch cycles stretch to the tick length.
		Sched: sched.Params{Quantum: 50 * sim.Microsecond},
		Seed:  seed,
	}
	res, err := workload.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &TableResult{
		Label:        "Listing 2: miniQMC OpenMP target offload",
		Command:      cfg.Srun.CommandLine("zerosum-mpi miniqmc-offload"),
		WallSeconds:  res.WallSeconds,
		PaperSeconds: PaperL2Seconds * scale,
		Snapshot:     res.Ranks[0].Snapshot,
		Result:       res,
	}, nil
}

// Figure5 runs the PIC-like halo exchange and returns the communication
// heatmap. The paper uses 512 ranks; tests use fewer.
func Figure5(ranks int, scale float64, seed uint64) (*analysis.Heatmap, *workload.Result, error) {
	pic := workload.DefaultPICHalo()
	steps := int(math.Round(float64(pic.Steps) * scale))
	if steps < 3 {
		steps = 3
	}
	pic.Steps = steps
	nodes := (ranks + 7) / 8
	res, err := workload.Run(workload.Config{
		Machine: topology.Frontier,
		Nodes:   nodes,
		App:     pic,
		Srun:    slurm.Options{NTasks: ranks, CoresPerTask: 7},
		Seed:    seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return analysis.FromMatrix(res.World.RecvMatrix()), res, nil
}

// SeriesResult carries the Figure 6/7 time-series charts.
type SeriesResult struct {
	LWP *analysis.StackedChart
	HWT *analysis.StackedChart
	// LWPNoisiness is the mean sample-to-sample jitter of the busy LWP
	// user% series; the paper notes the LWP chart (Fig. 6) is visibly
	// noisier than the HWT chart (Fig. 7).
	LWPNoisiness float64
	HWTNoisiness float64
}

// Figures6And7 runs the Table 3 configuration and assembles per-LWP and
// per-HWT utilization time series from rank 0's sample stream.
func Figures6And7(scale float64, seed uint64) (*SeriesResult, error) {
	out := &SeriesResult{
		LWP: analysis.NewStackedChart("miniQMC LWP (threads) utilization over time"),
		HWT: analysis.NewStackedChart("CPU core utilization over time"),
	}
	lwpUser := map[int]*analysis.Series{}
	hwtUser := map[int]*analysis.Series{}
	var cpus []int // in order of first sample
	rank0 := func(rank int, _ string) *export.Stream {
		if rank != 0 {
			return nil
		}
		s := &export.Stream{}
		// Payloads are borrowed for the call: copy the values out.
		s.Subscribe(func(ev export.Event) {
			switch ev.Kind {
			case export.EventLWP:
				sr := lwpUser[ev.LWP.TID]
				if sr == nil {
					sr = &analysis.Series{Name: fmt.Sprintf("LWP %d user%%", ev.LWP.TID)}
					lwpUser[ev.LWP.TID] = sr
					out.LWP.Add(sr)
				}
				sr.Append(ev.LWP.TimeSec, ev.LWP.UserPct)
			case export.EventHWT:
				sr := hwtUser[ev.HWT.CPU]
				if sr == nil {
					sr = &analysis.Series{Name: fmt.Sprintf("CPU %d user%%", ev.HWT.CPU)}
					hwtUser[ev.HWT.CPU] = sr
					cpus = append(cpus, ev.HWT.CPU)
				}
				sr.Append(ev.HWT.TimeSec, ev.HWT.UserPct)
			}
		})
		return s
	}
	tr, err := table(3, scale, seed, rank0)
	if err != nil {
		return nil, err
	}
	// Chart only the CPUs in the process's cpuset, which is known once the
	// run has been observed.
	aff := tr.Snapshot.ProcessAff
	for _, cpu := range cpus {
		if aff.Contains(cpu) {
			out.HWT.Add(hwtUser[cpu])
		}
	}
	out.LWPNoisiness = meanNoisiness(out.LWP, 20)
	out.HWTNoisiness = meanNoisiness(out.HWT, 20)
	return out, nil
}

// meanNoisiness averages Noisiness over series whose mean exceeds a floor
// (idle series are uninformative).
func meanNoisiness(c *analysis.StackedChart, minMean float64) float64 {
	sum, n := 0.0, 0
	for _, s := range c.Series {
		if s.Mean() >= minMean {
			sum += s.Noisiness()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// OverheadScenario is one side of Figure 8.
type OverheadScenario struct {
	Name           string
	ThreadsPerCore int
	Baseline       []float64
	WithZeroSum    []float64
	BaselineStats  analysis.Summary
	WithStats      analysis.Summary
	TTest          analysis.TTestResult
	OverheadSec    float64
	OverheadFrac   float64
}

// Figure8 runs the overhead experiment: `runs` seeded repetitions of the
// best miniQMC configuration with and without ZeroSum, at one and two
// OpenMP threads per core, compared with Welch's t-test (paper §4.1).
func Figure8(runs int, scale float64, seed uint64) ([2]*OverheadScenario, error) {
	var out [2]*OverheadScenario
	for i, tpc := range []int{1, 2} {
		sc := &OverheadScenario{
			Name:           fmt.Sprintf("%d thread(s) per core", tpc),
			ThreadsPerCore: tpc,
		}
		// Cache-refill cost of each monitor preemption: each rank's walker
		// working sets (~4 MB/thread) fit the 32 MB L3 region at one
		// thread per core, so a displaced thread refills from L3 — nearly
		// free. At two threads per core the region is ~2x overcommitted
		// and refills come from DRAM, charging real bandwidth on a
		// saturated memory controller. This is the asymmetry behind the
		// paper's "no overhead at 1 t/core, ~0.5% at 2 t/core".
		const wsPerThreadMB = 4
		refill := 60 * sim.Microsecond
		if wsPerThreadMB*7*tpc > 32 {
			refill = 600 * sim.Microsecond
		}
		for r := 0; r < runs; r++ {
			for _, withZS := range []bool{false, true} {
				mq := miniQMC(scale)
				mq.Threads = 7 * tpc
				mq.RunJitter = 0.0013
				cfg := workload.Config{
					Machine: topology.Frontier,
					App:     mq,
					Srun: slurm.Options{NTasks: 8, CoresPerTask: 7,
						ThreadsPerCore: tpc},
					OMP: openmp.Env{NumThreads: 7 * tpc,
						Bind: openmp.BindSpread, Places: openmp.PlacesCores},
					Sched: sched.Params{
						Quantum:       250 * sim.Microsecond,
						PreemptRefill: refill,
					},
					Seed: seed + uint64(r)*7919 + uint64(tpc)*13,
				}
				if withZS {
					cfg.Monitor = monitorOn()
				}
				res, err := workload.Run(cfg)
				if err != nil {
					return out, err
				}
				if withZS {
					sc.WithZeroSum = append(sc.WithZeroSum, res.WallSeconds)
				} else {
					sc.Baseline = append(sc.Baseline, res.WallSeconds)
				}
			}
		}
		sc.BaselineStats = analysis.Summarize(sc.Baseline)
		sc.WithStats = analysis.Summarize(sc.WithZeroSum)
		tt, err := analysis.WelchTTest(sc.Baseline, sc.WithZeroSum)
		if err != nil {
			return out, err
		}
		sc.TTest = tt
		sc.OverheadSec = sc.WithStats.Mean - sc.BaselineStats.Mean
		sc.OverheadFrac = sc.OverheadSec / sc.BaselineStats.Mean
		out[i] = sc
	}
	return out, nil
}
