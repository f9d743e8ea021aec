// Package zerosum is a Go reproduction of "ZeroSum: User Space Monitoring
// of Resource Utilization and Contention on Heterogeneous HPC Systems"
// (Huck & Malony, HUST-23 / SC'23 workshops).
//
// The package has two faces:
//
//   - A user-space monitor (the paper's tool): attach a Monitor to a
//     process via a /proc view (the live Linux /proc through NewRealProcFS,
//     or a simulated kernel), sample threads / hardware threads / memory /
//     GPUs once per period, and produce utilization reports, contention
//     reports, heartbeats and CSV exports.
//
//   - A simulated heterogeneous HPC testbed (the substrate the paper's
//     Frontier evaluation is reproduced on): node topologies (Frontier,
//     Summit, Perlmutter, Aurora presets), a discrete-event kernel
//     scheduler with affinity, preemption, migration, memory-bandwidth and
//     SMT contention, simulated MPI/OpenMP/Slurm/GPU layers, and the
//     miniQMC / PIC proxy applications.
//
// See RunJob for launching simulated experiments and MonitorSelf for
// observing the calling process on a real Linux host.
package zerosum

import (
	"io"
	"time"

	"zerosum/internal/advisor"
	"zerosum/internal/analysis"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/fsio"
	"zerosum/internal/gpu"
	"zerosum/internal/mpi"
	"zerosum/internal/obs"
	"zerosum/internal/openmp"
	"zerosum/internal/perfstub"
	"zerosum/internal/proc"
	"zerosum/internal/report"
	"zerosum/internal/sched"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
	"zerosum/internal/workload"
)

// Monitoring API (the paper's tool).
type (
	// Monitor is the ZeroSum monitor attached to one process.
	Monitor = core.Monitor
	// MonitorConfig tunes sampling.
	MonitorConfig = core.Config
	// MonitorDeps are the monitor's data sources.
	MonitorDeps = core.Deps
	// AdaptiveConfig tunes per-LWP adaptive sampling.
	AdaptiveConfig = core.AdaptiveConfig
	// Snapshot is the assembled end-of-run report data.
	Snapshot = core.Snapshot
	// Warning is one configuration-evaluation finding.
	Warning = core.Warning
	// EvalThresholds tunes configuration evaluation.
	EvalThresholds = core.EvalThresholds
	// ReportOptions controls optional report sections.
	ReportOptions = report.Options
	// ProcFS is the /proc interface monitors read through.
	ProcFS = proc.FS
	// Stream is the in-process sample pub/sub hook.
	Stream = export.Stream
	// CSVSink writes a stream's samples as the per-process CSV logs.
	CSVSink = export.CSVSink
	// ObsRecorder is the monitor's internal span ring (self-observability).
	ObsRecorder = obs.Recorder
	// ObsBudget configures the self-overhead watchdog (§4.1).
	ObsBudget = obs.Budget
	// SelfStats is the monitor's own cost accounting.
	SelfStats = obs.SelfStats
)

// NewObsRecorder creates an internal-tracing span recorder to pass in
// MonitorConfig.Obs (capacity 0 = default ring size).
func NewObsRecorder(capacity int) *ObsRecorder { return obs.NewRecorder(capacity) }

// Simulation and experiment API (the substrate).
type (
	// Machine is a hardware topology.
	Machine = topology.Machine
	// CPUSet is an affinity mask.
	CPUSet = topology.CPUSet
	// JobConfig describes a simulated job.
	JobConfig = workload.Config
	// JobMonitor configures the injected ZeroSum thread in simulated jobs.
	JobMonitor = workload.MonitorConfig
	// JobResult is a simulated job's outcome.
	JobResult = workload.Result
	// SrunOptions mirrors the launcher flags.
	SrunOptions = slurm.Options
	// OMPEnv is the OpenMP environment.
	OMPEnv = openmp.Env
	// MiniQMC is the paper's proxy application.
	MiniQMC = workload.MiniQMC
	// PICHalo is the Figure 5 communication workload.
	PICHalo = workload.PICHalo
	// SchedParams tunes the simulated kernel scheduler.
	SchedParams = sched.Params
	// NetParams tunes the simulated interconnect.
	NetParams = mpi.NetParams
	// Heatmap is the communication matrix.
	Heatmap = analysis.Heatmap
	// SMI is the GPU management interface.
	SMI = gpu.SMI
	// Advice is one configuration recommendation.
	Advice = advisor.Advice
	// AdvisorInput bundles what the advisor reasons over.
	AdvisorInput = advisor.Input
	// FSParams describes the simulated shared filesystem.
	FSParams = fsio.Params
	// Stubs is the PerfStubs-style instrumentation registry.
	Stubs = perfstub.Registry
	// JobSummary is the allocation-wide aggregated view.
	JobSummary = report.JobSummary
)

// NewMonitor creates a monitor over arbitrary dependencies.
func NewMonitor(cfg MonitorConfig, deps MonitorDeps) (*Monitor, error) {
	return core.New(cfg, deps)
}

// NewCSVSink writes each LWP, HWT, GPU and Mem sample of a stream as one
// CSV row to that kind's writer; a nil writer skips the kind. Subscribe
// its Subscriber to the monitor's Stream and Close it after the last tick.
func NewCSVSink(lwp, hwt, gpu, mem io.Writer) *CSVSink {
	return export.NewCSVSink(lwp, hwt, gpu, mem)
}

// NewRealProcFS returns the live Linux /proc view of this host.
func NewRealProcFS() ProcFS { return proc.NewRealFS() }

// MonitorSelf creates a monitor observing the calling process through the
// live /proc, with a wall clock — the paper's always-on library mode.
func MonitorSelf(cfg MonitorConfig) (*Monitor, error) {
	return core.New(cfg, core.Deps{FS: proc.NewRealFS(), Clock: realClock()})
}

// RunJob executes a simulated job (launch, apps, optional monitoring) and
// returns per-rank results.
func RunJob(cfg JobConfig) (*JobResult, error) { return workload.Run(cfg) }

// WriteReport renders the Listing-2 style utilization report.
func WriteReport(w io.Writer, snap Snapshot, opts ReportOptions) error {
	return report.Write(w, snap, opts)
}

// Evaluate runs configuration evaluation on a snapshot.
func Evaluate(snap Snapshot, th EvalThresholds) []Warning {
	return core.Evaluate(snap, th)
}

// MachineByName returns a topology preset: "frontier", "summit",
// "perlmutter", "aurora" or "laptop".
func MachineByName(name string) (*Machine, error) { return topology.ByName(name) }

// Lstopo renders a machine as an hwloc lstopo-style text tree (Listing 1).
func Lstopo(m *Machine) string { return topology.Lstopo(m) }

// DefaultMiniQMC returns the miniQMC configuration calibrated against the
// paper's Frontier runs.
func DefaultMiniQMC() *MiniQMC { return workload.DefaultMiniQMC() }

// DefaultPICHalo returns the Figure 5 workload configuration.
func DefaultPICHalo() *PICHalo { return workload.DefaultPICHalo() }

// HeatmapFromJob builds the Figure 5 communication heatmap from a job.
func HeatmapFromJob(res *JobResult) *Heatmap {
	return analysis.FromMatrix(res.World.RecvMatrix())
}

// Advise turns a snapshot plus launch settings into configuration fixes.
func Advise(in AdvisorInput) []Advice { return advisor.Advise(in) }

// AggregateJob builds the allocation-wide summary from per-rank snapshots.
func AggregateJob(snaps []Snapshot, th EvalThresholds) (*JobSummary, error) {
	return report.Aggregate(snaps, th)
}

// WriteJobSummary renders the aggregated job view.
func WriteJobSummary(w io.Writer, js *JobSummary) error {
	return report.WriteJobSummary(w, js)
}

// WelchTTest compares two runtime distributions (the Figure 8 statistic).
func WelchTTest(a, b []float64) (analysis.TTestResult, error) {
	return analysis.WelchTTest(a, b)
}

func realClock() func() time.Time { return time.Now }
