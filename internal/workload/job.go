// Package workload wires the substrates into runnable simulated HPC jobs:
// an srun-style launch (slurm) places MPI ranks (mpi) with OpenMP teams
// (openmp) and GPU assignments (gpu) onto simulated nodes (sched/topology),
// optionally injecting the ZeroSum monitor (core) as the asynchronous
// per-process thread the paper's tool uses. It also provides the proxy
// applications behind the paper's evaluation: a miniQMC-like MPI+OpenMP
// (+offload) code and a PIC-like halo-exchange code.
package workload

import (
	"fmt"
	"io"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/fsio"
	"zerosum/internal/gpu"
	"zerosum/internal/mpi"
	"zerosum/internal/obs"
	"zerosum/internal/openmp"
	"zerosum/internal/perfstub"
	"zerosum/internal/sched"
	"zerosum/internal/sim"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
)

// MonitorConfig controls the injected ZeroSum thread.
type MonitorConfig struct {
	// Enabled injects the monitor; when false the job runs bare (the
	// baseline side of the overhead experiment).
	Enabled bool
	// Period is the sampling interval (default 1 s, like the paper).
	Period sim.Time
	// CostBase and CostPerThread model the CPU the sampling pass burns:
	// total = CostBase + CostPerThread * live LWPs. Defaults 150 us + 40 us.
	CostBase      sim.Time
	CostPerThread sim.Time
	// Bursts splits the sampling work into short runs separated by
	// micro-sleeps (each /proc read blocks briefly in the kernel), which
	// is what inflicts several involuntary switches per tick on a thread
	// sharing the monitor's core. Default 8.
	Bursts int
	// CPU pins the monitor thread; <0 picks the last CPU of the process
	// cpuset (ZeroSum's default, runtime-configurable in the paper).
	CPU int
	// Heartbeat, when non-nil, receives periodic progress lines.
	Heartbeat io.Writer
	// HeartbeatEvery in samples (0 disables).
	HeartbeatEvery int
	// Stream receives every sample (data-service hook).
	Stream *export.Stream
	// StreamFor, when non-nil, supplies a per-rank stream and overrides
	// Stream (per-rank .zsbp frame logs and aggd node agents need distinct,
	// origin-labelled sinks). node is the simulated hostname the rank was
	// placed on.
	StreamFor func(rank int, node string) *export.Stream
	// DropSeries does nothing: monitors retain no series, and a rank's
	// samples leave only through its stream (Stream, StreamFor).
	//
	// Deprecated: no-op, kept for callers that still set it.
	DropSeries bool
	// DeadlockSamples enables the deadlock hint after N all-idle samples.
	DeadlockSamples int
	// RebindAfter enables the monitor's automatic thread re-affinity after
	// N consecutive pileup samples (0 disables).
	RebindAfter int
	// StallTicks enables §3.3 progress detection: a thread with no
	// utime/stime/ctx-switch delta for this many consecutive samples is
	// flagged stalled (0 disables).
	StallTicks int
	// Budget enables the §4.1 overhead-budget watchdog on each rank's
	// monitor; when exceeded, sampling degrades (the period doubles).
	Budget obs.Budget
	// Adaptive enables per-LWP adaptive sampling on each rank's monitor:
	// quiescent threads are scanned less often.
	Adaptive core.AdaptiveConfig
	// Obs, when non-nil, receives internal tracing spans from every rank's
	// monitor (the recorder is safe for concurrent writers).
	Obs *obs.Recorder
}

func (mc MonitorConfig) withDefaults() MonitorConfig {
	if mc.Period <= 0 {
		mc.Period = sim.Second
	}
	if mc.CostBase <= 0 {
		mc.CostBase = 400 * sim.Microsecond
	}
	if mc.CostPerThread <= 0 {
		mc.CostPerThread = 60 * sim.Microsecond
	}
	if mc.Bursts <= 0 {
		mc.Bursts = 8
	}
	return mc
}

// App builds the application tasks for one rank. Build is called once per
// rank after the process, MPI attachment, OpenMP runtime and GPU view
// exist; it must create the main task (first NewTask on the process).
type App interface {
	Build(rc *RankCtx) error
}

// RankCtx is everything a rank's app factory can reach.
type RankCtx struct {
	Rank    int
	Job     *Job
	Node    int
	K       *sched.Kernel
	Proc    *sched.Process
	MPI     *mpi.Rank
	OMP     *openmp.Runtime
	Devices []*gpu.Device // this rank's visible devices, visible order
	SMI     gpu.SMI       // nil when no GPUs assigned
	RNG     *sim.RNG      // per-rank deterministic stream
	Monitor *core.Monitor // nil when monitoring is disabled
	// Stubs is the rank's PerfStubs-style instrumentation registry on the
	// simulated clock; proxy apps time their phases through it and the
	// final RankResult exposes it for correlation with system samples.
	Stubs *perfstub.Registry
	// FS is the job's shared filesystem (nil unless Config.FS was set).
	FS *fsio.FileSystem
}

// AppDone reports whether every application LWP of the rank has exited
// (the monitor and MPI helper threads don't count).
func (rc *RankCtx) AppDone() bool {
	for _, t := range rc.Proc.Tasks {
		if t.Exited {
			continue
		}
		if t.Kind == sched.KindZeroSum || t.Kind == sched.KindOther {
			continue
		}
		return false
	}
	return true
}

// Config describes a simulated job.
type Config struct {
	// Machine builds one node (call a topology preset).
	Machine func() *topology.Machine
	// Nodes is the node count (default 1).
	Nodes int
	// Srun is the launch configuration.
	Srun slurm.Options
	// OMP is the per-process OpenMP environment.
	OMP openmp.Env
	// App builds each rank's tasks.
	App App
	// Monitor configures the injected ZeroSum thread.
	Monitor MonitorConfig
	// Sched overrides kernel scheduler parameters.
	Sched sched.Params
	// Net overrides interconnect parameters.
	Net *mpi.NetParams
	// Seed drives all randomness (default 1).
	Seed uint64
	// MaxSimTime aborts runaway jobs (default 1 hour of simulated time).
	MaxSimTime sim.Time
	// MaxEvents bounds the event loop (default 500M).
	MaxEvents int
	// TraceEvents, when positive, records per-node scheduling traces
	// (Chrome trace format) capped at this many slices per node.
	TraceEvents int
	// FS, when non-nil, attaches a shared parallel filesystem that
	// checkpointing workloads write through.
	FS *fsio.Params
}

// RankResult is one rank's outcome.
type RankResult struct {
	Rank       int
	Node       int
	PID        int
	Proc       *sched.Process
	Monitor    *core.Monitor // nil when disabled
	Snapshot   core.Snapshot // zero when disabled
	Stubs      *perfstub.Registry
	AppRuntime float64 // seconds from launch to last app-thread exit
}

// Result is the whole job's outcome.
type Result struct {
	Ranks   []RankResult
	World   *mpi.World
	Kernels []*sched.Kernel
	// WallSeconds is the job runtime: the max rank AppRuntime (what the
	// application self-reports, the number Figure 8 compares).
	WallSeconds float64
	// Traces holds one scheduling trace per node when Config.TraceEvents
	// was set.
	Traces []*sched.Trace
	// FS is the job's shared filesystem (nil unless Config.FS was set).
	FS *fsio.FileSystem
}

// Job is the in-flight state; exposed to App factories through RankCtx.
type Job struct {
	Cfg     Config
	Q       *sim.Queue
	World   *mpi.World
	Kernels []*sched.Kernel
	Ranks   []*RankCtx
	RNG     *sim.RNG
	// FS is the job's shared filesystem when Config.FS was given.
	FS *fsio.FileSystem

	traces []*sched.Trace
}

// Run executes a simulated job to completion.
func Run(cfg Config) (*Result, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("workload: Config.Machine is required")
	}
	if cfg.App == nil {
		return nil, fmt.Errorf("workload: Config.App is required")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxSimTime <= 0 {
		cfg.MaxSimTime = 3600 * sim.Second
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 500_000_000
	}
	cfg.Monitor = cfg.Monitor.withDefaults()

	protoMachine := cfg.Machine()
	plan, err := slurm.Plan(protoMachine, cfg.Nodes, cfg.Srun)
	if err != nil {
		return nil, err
	}

	var q sim.Queue
	rng := sim.NewRNG(cfg.Seed)
	job := &Job{Cfg: cfg, Q: &q, RNG: rng}

	net := mpi.DefaultNet()
	if cfg.Net != nil {
		net = *cfg.Net
	}
	job.World = mpi.NewWorld(&q, cfg.Srun.NTasks, net)
	if cfg.FS != nil {
		job.FS = fsio.New(*cfg.FS, func() sim.Time { return q.Now() })
	}

	// Build one kernel (+ its GPU devices) per node actually used.
	nodesUsed := 0
	for _, a := range plan {
		if a.Node+1 > nodesUsed {
			nodesUsed = a.Node + 1
		}
	}
	nodeDevices := make([]map[int]*gpu.Device, nodesUsed)
	for n := 0; n < nodesUsed; n++ {
		m := cfg.Machine()
		if nodesUsed > 1 {
			m.Hostname = fmt.Sprintf("%s-%04d", m.Hostname, n)
		}
		k := sched.NewKernel(m, &q, rng.Fork(), cfg.Sched)
		job.Kernels = append(job.Kernels, k)
		if cfg.TraceEvents > 0 {
			job.traces = append(job.traces, k.EnableTrace(cfg.TraceEvents))
		}
		devs := map[int]*gpu.Device{}
		for _, g := range m.GPUs {
			devs[g.VendorIndex] = gpu.NewDevice(
				gpu.DeviceInfo{
					VisibleIndex: g.VendorIndex,
					TrueIndex:    g.VendorIndex,
					NUMAIndex:    g.NUMAIndex,
					Model:        g.Model,
					MemBytes:     g.MemBytes,
					GTTBytes:     g.GTTBytes,
				},
				gpuParamsFrom(g),
				func() sim.Time { return q.Now() },
				rng.Fork(),
			)
		}
		nodeDevices[n] = devs
	}

	// Create processes and attach ranks first (sends at t=0 must resolve).
	for _, a := range plan {
		k := job.Kernels[a.Node]
		p := k.NewProcess(appComm(cfg.App), a.CPUs)
		rc := &RankCtx{
			Rank: a.Rank,
			Job:  job,
			Node: a.Node,
			K:    k,
			Proc: p,
			MPI:  job.World.Attach(a.Rank, k, p),
			RNG:  rng.Fork(),
		}
		rc.Stubs = perfstub.NewRegistry(func() float64 { return q.Now().Seconds() })
		rc.FS = job.FS
		rc.OMP = openmp.NewRuntime(k, cfg.OMP)
		for vis, vendorIdx := range a.GPUs {
			dev := nodeDevices[a.Node][vendorIdx]
			// The rank sees the device as index `vis` but its true index
			// is the vendor index — the paper's visible-vs-true split.
			info := dev.Info
			info.VisibleIndex = vis
			info.TrueIndex = vendorIdx
			dev.Info = info
			rc.Devices = append(rc.Devices, dev)
		}
		if len(rc.Devices) > 0 {
			rc.SMI = gpu.NewSimSMI(rc.Devices, rng.Fork())
		}
		job.Ranks = append(job.Ranks, rc)
	}

	// Wire monitors, then build apps, then helper threads.
	for _, rc := range job.Ranks {
		if cfg.Monitor.Enabled {
			if err := injectMonitor(rc, cfg.Monitor); err != nil {
				return nil, err
			}
		}
	}
	for _, rc := range job.Ranks {
		if err := cfg.App.Build(rc); err != nil {
			return nil, fmt.Errorf("workload: build rank %d: %w", rc.Rank, err)
		}
		if rc.Proc.Main() == nil {
			return nil, fmt.Errorf("workload: app for rank %d created no main task", rc.Rank)
		}
		spawnProgressThread(rc)
	}
	// Start the monitor threads after the app exists so the last-CPU
	// placement and self-classification see the real process.
	for _, rc := range job.Ranks {
		if rc.Monitor != nil {
			startMonitorThread(rc, cfg.Monitor)
		}
	}

	if err := runAll(job, cfg); err != nil {
		return nil, err
	}

	res := &Result{World: job.World, Kernels: job.Kernels, Traces: job.traces, FS: job.FS}
	for _, tr := range res.Traces {
		tr.Flush()
	}
	for _, rc := range job.Ranks {
		rr := RankResult{
			Rank: rc.Rank, Node: rc.Node, PID: rc.Proc.PID, Proc: rc.Proc,
			Monitor: rc.Monitor, Stubs: rc.Stubs,
		}
		var last sim.Time
		for _, t := range rc.Proc.Tasks {
			if t.Kind == sched.KindZeroSum || t.Kind == sched.KindOther {
				continue
			}
			if t.ExitTime > last {
				last = t.ExitTime
			}
		}
		rr.AppRuntime = (last - rc.Proc.StartTime).Seconds()
		if rc.Monitor != nil {
			rc.Monitor.Finish()
			rr.Snapshot = rc.Monitor.Snapshot()
		}
		res.Ranks = append(res.Ranks, rr)
		if rr.AppRuntime > res.WallSeconds {
			res.WallSeconds = rr.AppRuntime
		}
	}
	return res, nil
}

// runAll drives the shared event queue until every process on every kernel
// has exited.
func runAll(job *Job, cfg Config) error {
	allExited := func() bool {
		for _, k := range job.Kernels {
			if !k.AllExited() {
				return false
			}
		}
		return true
	}
	for i := 0; i < cfg.MaxEvents; i++ {
		if allExited() {
			return nil
		}
		if job.Q.Now() > cfg.MaxSimTime {
			return fmt.Errorf("workload: exceeded max simulated time %v", cfg.MaxSimTime)
		}
		if !job.Q.Step() {
			if allExited() {
				return nil
			}
			return fmt.Errorf("workload: event queue drained with live processes at %v (deadlock?)", job.Q.Now())
		}
	}
	return fmt.Errorf("workload: exceeded %d events", cfg.MaxEvents)
}

// appComm extracts a process name from the app.
func appComm(a App) string {
	if n, ok := a.(interface{ Name() string }); ok {
		return n.Name()
	}
	return "app"
}

func gpuParamsFrom(g *topology.GPU) gpu.Params {
	p := gpu.DefaultParams()
	if g.PeakClockMHz > 0 {
		p.PeakClockMHz = g.PeakClockMHz
	}
	if g.BaseClockMHz > 0 {
		p.BaseClockMHz = g.BaseClockMHz
	}
	if g.TDPWatts > 0 {
		p.TDPWatts = g.TDPWatts
	}
	return p
}

// injectMonitor builds the core.Monitor for a rank (the LD_PRELOAD
// initialization phase: configuration detection happens at New).
func injectMonitor(rc *RankCtx, mc MonitorConfig) error {
	fs := rc.K.ProcFS(rc.Proc.PID)
	stream := mc.Stream
	if mc.StreamFor != nil {
		stream = mc.StreamFor(rc.Rank, rc.K.Hostname())
	}
	mon, err := core.New(core.Config{
		Period:          mc.Period.Duration(),
		HeartbeatEvery:  mc.HeartbeatEvery,
		Heartbeat:       mc.Heartbeat,
		DeadlockSamples: mc.DeadlockSamples,
		RebindAfter:     mc.RebindAfter,
		StallTicks:      mc.StallTicks,
		Budget:          mc.Budget,
		Adaptive:        mc.Adaptive,
		Obs:             mc.Obs,
		Stream:          stream,
	}, core.Deps{
		FS:       fs,
		SMI:      rc.SMI,
		Clock:    rc.K.WallClock,
		Machine:  rc.K.Machine,
		Rebinder: &simRebinder{rc: rc},
	})
	if err != nil {
		return err
	}
	rc.Monitor = mon
	// OMPT integration: classify team threads as they are created.
	rc.OMP.OnThreadBegin(func(t *sched.Task, threadNum int) {
		mon.HintKind(t.TID, core.KindOpenMP)
	})
	// PMPI integration: byte accounting for the heatmap.
	rc.MPI.OnP2P(func(kind mpi.P2PKind, peer int, bytes uint64) {
		mon.RecordP2P(kind == mpi.OpSend, peer, bytes)
	})
	return nil
}

// startMonitorThread spawns the asynchronous ZeroSum LWP: sleep one period,
// burn the sampling cost in short bursts, take the sample, repeat; exit
// when the application is done.
func startMonitorThread(rc *RankCtx, mc MonitorConfig) {
	cpu := mc.CPU
	if cpu < 0 || !rc.Proc.Affinity.Contains(cpu) {
		cpu = rc.Proc.Affinity.Last()
	}
	mon := rc.Monitor
	k := rc.K

	// One cycle: Sleep(period); then Bursts short computes separated by
	// micro-sleeps (each /proc read blocks briefly in the kernel, letting
	// a displaced thread back on the CPU so the next burst preempts it
	// again); then the Tick callback; repeat until the app exits.
	step := 0
	behavior := sched.BehaviorFunc(func(t *sched.Task, now sim.Time) sched.Action {
		// Late MPI detection, as the paper's async thread does.
		if rc.MPI.Initialized() {
			mon.SetMPIInfo(rc.MPI.ID, rc.MPI.Size())
		}
		if step == 0 {
			if rc.AppDone() {
				mon.Finish()
				return nil
			}
			step++
			// CurrentPeriod, not mc.Period: the overhead-budget watchdog
			// may have degraded the sampling rate mid-run (§4.1).
			return sched.Sleep{D: sim.Time(mon.CurrentPeriod())}
		}
		idx := step - 1 // position in the burst/sleep alternation
		step++
		if idx < 2*mc.Bursts-1 {
			if idx%2 == 0 {
				cost := mc.CostBase + mc.CostPerThread*sim.Time(len(rc.Proc.LiveTasks()))
				return sched.Compute{Work: cost / sim.Time(mc.Bursts), SysFrac: 0.3}
			}
			return sched.Sleep{D: 30 * sim.Microsecond}
		}
		step = 0
		return sched.Call{Fn: func(sim.Time) {
			if err := mon.Tick(); err != nil {
				panic(fmt.Sprintf("workload: monitor tick: %v", err))
			}
		}}
	})
	task := k.NewTask(rc.Proc, "zerosum", behavior,
		sched.WithKind(sched.KindZeroSum),
		sched.WithAffinity(topology.NewCPUSet(cpu)),
		sched.WithWakePreempt())
	mon.SetSelfTID(task.TID)
	mon.HintKind(task.TID, core.KindZeroSum)
}

// simRebinder applies monitor-initiated affinity changes to simulated
// tasks — the sched_setaffinity path of the auto-rebind feature.
type simRebinder struct {
	rc *RankCtx
}

// SetAffinity implements core.Rebinder.
func (r *simRebinder) SetAffinity(tid int, cpus topology.CPUSet) error {
	for _, t := range r.rc.Proc.Tasks {
		if t.TID == tid && !t.Exited {
			r.rc.K.SetAffinity(t, cpus)
			return nil
		}
	}
	return fmt.Errorf("workload: no live task %d", tid)
}

// spawnProgressThread starts the MPI helper LWP, exiting with the app.
func spawnProgressThread(rc *RankCtx) {
	aff := rc.K.Machine.UsableSet(0)
	sleeping := false
	behavior := sched.BehaviorFunc(func(t *sched.Task, now sim.Time) sched.Action {
		if rc.AppDone() {
			return nil
		}
		sleeping = !sleeping
		if sleeping {
			return sched.Sleep{D: 500 * sim.Millisecond}
		}
		return sched.Compute{Work: 15 * sim.Microsecond, SysFrac: 0.9}
	})
	rc.K.NewTask(rc.Proc, "cxi_progress", behavior,
		sched.WithKind(sched.KindOther),
		sched.WithAffinity(aff))
}
