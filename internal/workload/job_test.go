package workload

import (
	"strings"
	"testing"

	"zerosum/internal/fsio"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/openmp"
	"zerosum/internal/report"
	"zerosum/internal/sched"
	"zerosum/internal/sim"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
)

// scaledMiniQMC is the paper workload at 1/10 scale for fast tests.
func scaledMiniQMC() *MiniQMC {
	mq := DefaultMiniQMC()
	mq.Steps = 10
	mq.WorkPerStep = 20 * sim.Millisecond
	return mq
}

func fastMonitor() MonitorConfig {
	return MonitorConfig{Enabled: true, Period: 100 * sim.Millisecond, CPU: -1}
}

// runTable runs the scaled miniQMC in one of the paper's three launch
// configurations.
func runTable(t *testing.T, table int, mon MonitorConfig) *Result {
	t.Helper()
	cfg := Config{
		Machine: topology.Frontier,
		Nodes:   1,
		App:     scaledMiniQMC(),
		Monitor: mon,
		Seed:    42,
	}
	switch table {
	case 1: // srun -n8, OMP_NUM_THREADS=7
		cfg.Srun = slurm.Options{NTasks: 8}
		cfg.OMP = openmp.Env{NumThreads: 7}
		cfg.Sched = sched.Params{Quantum: 100 * sim.Microsecond, Timeslice: 200 * sim.Microsecond}
	case 2: // srun -n8 -c7
		cfg.Srun = slurm.Options{NTasks: 8, CoresPerTask: 7}
		cfg.OMP = openmp.Env{NumThreads: 7}
	case 3: // srun -n8 -c7 + OMP_PROC_BIND=spread OMP_PLACES=cores
		cfg.Srun = slurm.Options{NTasks: 8, CoresPerTask: 7}
		cfg.OMP = openmp.Env{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores}
	default:
		t.Fatalf("unknown table %d", table)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTable1DefaultConfigShape(t *testing.T) {
	res := runTable(t, 1, fastMonitor())
	snap := res.Ranks[0].Snapshot
	// All app threads confined to one core (core 1 for rank 0).
	for _, l := range snap.LWPs {
		if l.Kind == core.KindOther {
			continue // MPI helper is unbound
		}
		if got := l.Affinity.String(); got != "1" {
			t.Fatalf("LWP %d (%s) affinity = %s, want 1", l.TID, l.Label, got)
		}
	}
	// Massive involuntary context switching on the compute threads.
	var maxNV uint64
	for _, l := range snap.LWPs {
		if l.Kind == core.KindOpenMP || l.Kind == core.KindMain {
			if l.NVCtx > maxNV {
				maxNV = l.NVCtx
			}
			// Each thread only gets ~1/8 of the core.
			if tot := l.UTimePct + l.STimePct; tot > 30 {
				t.Fatalf("LWP %d utilization %.1f%%, want <30%% when oversubscribed", l.TID, tot)
			}
		}
	}
	if maxNV < 500 {
		t.Fatalf("max nvctx = %d, want hundreds+ under oversubscription", maxNV)
	}
	// Misconfiguration is detected.
	warnings := core.Evaluate(snap, core.EvalThresholds{})
	found := false
	for _, w := range warnings {
		if w.Kind == core.WarnSingleCore {
			found = true
		}
	}
	if !found {
		t.Fatalf("single-core misconfiguration not flagged: %v", warnings)
	}
}

func TestTable2Vs3Shape(t *testing.T) {
	res2 := runTable(t, 2, fastMonitor())
	res3 := runTable(t, 3, fastMonitor())
	snap2 := res2.Ranks[0].Snapshot
	snap3 := res3.Ranks[0].Snapshot

	// Table 2: threads unbound (full process cpuset).
	for _, l := range snap2.LWPs {
		if l.Kind == core.KindOpenMP {
			if l.Affinity.Count() != 7 {
				t.Fatalf("T2 LWP %d affinity = %s, want the 1-7 cpuset", l.TID, l.Affinity)
			}
		}
	}
	// Table 3: each OpenMP thread pinned to its own core and never
	// migrated.
	seen := map[int]bool{}
	for _, l := range snap3.LWPs {
		if l.Kind != core.KindOpenMP && l.Kind != core.KindMain {
			continue
		}
		if l.Affinity.Count() != 1 {
			t.Fatalf("T3 LWP %d affinity = %s, want one core", l.TID, l.Affinity)
		}
		c := l.Affinity.First()
		if seen[c] {
			t.Fatalf("T3 core %d assigned twice", c)
		}
		seen[c] = true
		if l.ObservedCPUs.Count() != 1 {
			t.Fatalf("T3 LWP %d migrated: observed %s", l.TID, l.ObservedCPUs)
		}
	}
	// Runtimes comparable between T2 and T3 (paper: 27.33 vs 27.40).
	r2, r3 := res2.WallSeconds, res3.WallSeconds
	if r2 <= 0 || r3 <= 0 {
		t.Fatalf("runtimes: %v %v", r2, r3)
	}
	if ratio := r2 / r3; ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("T2/T3 runtime ratio = %v, want ~1", ratio)
	}
	// High utilization in both.
	for _, l := range snap3.LWPs {
		if l.Kind == core.KindOpenMP {
			if tot := l.UTimePct + l.STimePct; tot < 70 {
				t.Fatalf("T3 LWP %d utilization %.1f%%, want high", l.TID, tot)
			}
		}
	}
}

func TestTable1SlowerThanTable3(t *testing.T) {
	res1 := runTable(t, 1, MonitorConfig{})
	res3 := runTable(t, 3, MonitorConfig{})
	ratio := res1.WallSeconds / res3.WallSeconds
	// Paper: 63.67/27.40 = 2.3x. Our bandwidth-bound model gives ~2.5x.
	if ratio < 1.8 || ratio > 4.0 {
		t.Fatalf("T1/T3 ratio = %.2f, want 2-3x", ratio)
	}
}

func TestTable3MonitorVictim(t *testing.T) {
	// Only the thread sharing the monitor's core shows elevated nvctx.
	res := runTable(t, 3, fastMonitor())
	snap := res.Ranks[0].Snapshot
	var monCPU int = -1
	for _, l := range snap.LWPs {
		if l.Kind == core.KindZeroSum {
			monCPU = l.Affinity.First()
		}
	}
	if monCPU < 0 {
		t.Fatal("no ZeroSum thread in report")
	}
	if monCPU != 7 {
		t.Fatalf("monitor on CPU %d, want last cpuset CPU 7", monCPU)
	}
	for _, l := range snap.LWPs {
		if l.Kind != core.KindOpenMP && l.Kind != core.KindMain {
			continue
		}
		if l.Affinity.First() == monCPU {
			if l.NVCtx < 5 {
				t.Fatalf("victim LWP %d nvctx = %d, want elevated", l.TID, l.NVCtx)
			}
		} else if l.NVCtx > 5 {
			t.Fatalf("non-victim LWP %d nvctx = %d, want ~0", l.TID, l.NVCtx)
		}
	}
}

func TestListing2OffloadRun(t *testing.T) {
	mq := scaledMiniQMC()
	mq.Threads = 4
	mq.Offload = &Offload{
		LaunchesPerStep: 10,
		KernelTime:      3 * sim.Millisecond,
		XferBytes:       1 << 20,
		LaunchCPU:       300 * sim.Microsecond,
		LaunchSysFrac:   0.45,
		VRAMBytes:       4 << 30,
	}
	res, err := Run(Config{
		Machine: topology.Frontier,
		App:     mq,
		Srun: slurm.Options{NTasks: 8, CoresPerTask: 7, GPUsPerTask: 1,
			GPUBind: slurm.GPUBindClosest},
		OMP:     openmp.Env{NumThreads: 4, Bind: openmp.BindSpread, Places: openmp.PlacesCores},
		Monitor: fastMonitor(),
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Ranks[0].Snapshot
	if len(snap.GPUs) != 1 {
		t.Fatalf("rank 0 GPUs = %d, want 1", len(snap.GPUs))
	}
	// Rank 0's visible device 0 is true GCD 4 (the paper's point).
	if snap.GPUs[0].TrueIndex != 4 {
		t.Fatalf("true index = %d, want 4", snap.GPUs[0].TrueIndex)
	}
	// GPU shows activity.
	var busyAvg, vram float64
	for _, metric := range snap.GPUs[0].Metrics {
		switch metric.Name {
		case "Device Busy %":
			busyAvg = metric.Agg.Avg()
		case "Used VRAM Bytes":
			vram = metric.Agg.Max
		}
	}
	if busyAvg <= 0 {
		t.Fatal("GPU busy average should be positive")
	}
	if vram < 4e9 {
		t.Fatalf("VRAM max = %v, want >= 4 GB allocation", vram)
	}
	// Offload sync shows up as voluntary context switches on walkers.
	var walkerVctx uint64
	for _, l := range snap.LWPs {
		if l.Kind == core.KindOpenMP {
			walkerVctx += l.VCtx
		}
	}
	if walkerVctx < 100 {
		t.Fatalf("walker vctx = %d, want many from kernel syncs", walkerVctx)
	}
	// The report renders the full Listing 2 structure.
	var sb strings.Builder
	if err := report.Write(&sb, snap, report.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Duration of execution", "GPU 0 - (metric: min avg max)", "Used VRAM Bytes"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestMonitorOverheadSmall(t *testing.T) {
	// Monitored vs bare runtime in the T3 configuration: overhead must be
	// well under 1% (the paper's headline claim).
	base := runTable(t, 3, MonitorConfig{})
	with := runTable(t, 3, MonitorConfig{Enabled: true, Period: sim.Second, CPU: -1})
	if base.WallSeconds <= 0 {
		t.Fatal("baseline runtime zero")
	}
	overhead := (with.WallSeconds - base.WallSeconds) / base.WallSeconds
	if overhead > 0.01 || overhead < -0.01 {
		t.Fatalf("overhead = %.4f, want |overhead| < 1%%", overhead)
	}
}

func TestJobDeterminism(t *testing.T) {
	a := runTable(t, 3, fastMonitor())
	b := runTable(t, 3, fastMonitor())
	if a.WallSeconds != b.WallSeconds {
		t.Fatalf("non-deterministic wall: %v vs %v", a.WallSeconds, b.WallSeconds)
	}
	for i := range a.Ranks {
		sa, sb := a.Ranks[i].Snapshot, b.Ranks[i].Snapshot
		if len(sa.LWPs) != len(sb.LWPs) {
			t.Fatalf("rank %d thread counts differ", i)
		}
		for j := range sa.LWPs {
			if sa.LWPs[j].NVCtx != sb.LWPs[j].NVCtx || sa.LWPs[j].VCtx != sb.LWPs[j].VCtx {
				t.Fatalf("rank %d LWP %d counters differ", i, j)
			}
		}
	}
}

func TestPICHeatmapShape(t *testing.T) {
	pic := DefaultPICHalo()
	pic.Steps = 5
	pic.ComputePerStep = 2 * sim.Millisecond
	const ranks = 32
	res, err := Run(Config{
		Machine: topology.Frontier,
		Nodes:   4,
		App:     pic,
		Srun:    slurm.Options{NTasks: ranks, CoresPerTask: 7},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mat := res.World.RecvMatrix()
	// Nearest-neighbour volume dominates.
	var near, far, total uint64
	for d := 0; d < ranks; d++ {
		for s := 0; s < ranks; s++ {
			v := mat[d][s]
			total += v
			dist := (d - s + ranks) % ranks
			if dist == 1 || dist == ranks-1 {
				near += v
			} else if v > 0 {
				far += v
			}
		}
	}
	if total == 0 {
		t.Fatal("no communication recorded")
	}
	if frac := float64(near) / float64(total); frac < 0.7 {
		t.Fatalf("nearest-neighbour fraction = %v, want > 0.7", frac)
	}
	if far == 0 {
		t.Fatal("expected secondary band from far offsets")
	}
}

func TestProgressThreadInReport(t *testing.T) {
	res := runTable(t, 3, fastMonitor())
	snap := res.Ranks[0].Snapshot
	var other *core.ThreadSummary
	for i := range snap.LWPs {
		if snap.LWPs[i].Label == "Other" {
			other = &snap.LWPs[i]
		}
	}
	if other == nil {
		t.Fatal("MPI helper thread missing from report")
	}
	// Unbound: affinity much larger than the process cpuset.
	if other.Affinity.Count() <= 7 {
		t.Fatalf("helper affinity = %s, want the whole machine", other.Affinity)
	}
	if other.UTimePct+other.STimePct > 1 {
		t.Fatalf("helper should be nearly idle, got %.2f%%", other.UTimePct+other.STimePct)
	}
}

func TestMPIRankDetected(t *testing.T) {
	res := runTable(t, 2, fastMonitor())
	for i, rr := range res.Ranks {
		if rr.Snapshot.Rank != i {
			t.Fatalf("rank %d snapshot rank = %d", i, rr.Snapshot.Rank)
		}
		if rr.Snapshot.Size != 8 {
			t.Fatalf("size = %d", rr.Snapshot.Size)
		}
	}
}

func TestStreamReceivesSamples(t *testing.T) {
	var stream export.Stream
	n := 0
	stream.Subscribe(func(export.Event) { n++ })
	mon := fastMonitor()
	mon.Stream = &stream
	runTable(t, 3, mon)
	if n == 0 {
		t.Fatal("stream received nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing machine should fail")
	}
	if _, err := Run(Config{Machine: topology.Frontier}); err == nil {
		t.Fatal("missing app should fail")
	}
	if _, err := Run(Config{Machine: topology.Frontier, App: scaledMiniQMC(),
		Srun: slurm.Options{NTasks: 1000}}); err == nil {
		t.Fatal("oversized job should fail")
	}
}

func TestSyntheticWorkload(t *testing.T) {
	res, err := Run(Config{
		Machine: topology.Laptop4Core,
		App:     &Synthetic{Threads: 4, Work: 50 * sim.Millisecond, Repeats: 2, SleepEvery: 10 * sim.Millisecond},
		Srun:    slurm.Options{NTasks: 1, CoresPerTask: 4, ThreadsPerCore: 2},
		Monitor: MonitorConfig{Enabled: true, Period: 20 * sim.Millisecond, CPU: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSeconds <= 0 {
		t.Fatal("no runtime")
	}
	snap := res.Ranks[0].Snapshot
	if len(snap.LWPs) < 5 { // 4 workers + monitor (+helper)
		t.Fatalf("threads = %d", len(snap.LWPs))
	}
}

func TestPerfstubStepTimer(t *testing.T) {
	res := runTable(t, 3, MonitorConfig{})
	stubs := res.Ranks[0].Stubs
	if stubs == nil {
		t.Fatal("rank has no perfstub registry")
	}
	timers := stubs.Timers()
	if len(timers) != 1 || timers[0].Name != "miniqmc.step" {
		t.Fatalf("timers = %+v", timers)
	}
	st := timers[0]
	// 10 steps at scaled size: steps 2..N measured.
	if st.Count != 9 {
		t.Fatalf("step intervals = %d, want 9", st.Count)
	}
	// Each step is ~20ms of work at ~0.36x bandwidth throttle: ~56ms.
	if st.Mean() < 0.03 || st.Mean() > 0.12 {
		t.Fatalf("mean step = %vs, want ~0.056", st.Mean())
	}
	// The application timer and the monitor's system view must agree on
	// total runtime within a step.
	total := st.Total
	if total <= 0 || total > res.WallSeconds {
		t.Fatalf("timed total %v vs wall %v", total, res.WallSeconds)
	}
}

// TestAutoRebindRecoversPileup is the paper's §3.1 future-work feature end
// to end: a job whose OpenMP binding stacked every thread on one core is
// detected by the monitor after a few samples and automatically spread
// across the cpuset, recovering most of the lost performance mid-run.
func TestAutoRebindRecoversPileup(t *testing.T) {
	run := func(rebind bool) *Result {
		mq := DefaultMiniQMC()
		mq.Steps = 40
		mq.WorkPerStep = 20 * sim.Millisecond
		mon := MonitorConfig{Enabled: true, Period: 100 * sim.Millisecond, CPU: -1}
		if rebind {
			mon.RebindAfter = 3
		}
		res, err := Run(Config{
			Machine: topology.Frontier,
			App:     mq,
			Srun:    slurm.Options{NTasks: 8, CoresPerTask: 7},
			// The misconfiguration: master binding stacks the team on the
			// first core of a 7-core cpuset.
			OMP:     openmp.Env{NumThreads: 7, Bind: openmp.BindMaster, Places: openmp.PlacesCores},
			Monitor: mon,
			Sched:   sched.Params{Quantum: 200 * sim.Microsecond, Timeslice: 400 * sim.Microsecond},
			Seed:    33,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	broken := run(false)
	fixed := run(true)

	mon := fixed.Ranks[0].Monitor
	if len(mon.Rebinds()) == 0 {
		t.Fatal("no rebind events recorded")
	}
	// The rebind spread threads over distinct cores.
	seen := map[int]bool{}
	for _, ev := range mon.Rebinds() {
		c := ev.To.First()
		if seen[c] {
			t.Fatalf("rebind target core %d used twice", c)
		}
		seen[c] = true
	}
	speedup := broken.WallSeconds / fixed.WallSeconds
	if speedup < 1.5 {
		t.Fatalf("auto-rebind speedup = %.2fx, want >= 1.5x", speedup)
	}
	// Post-rebind, threads actually executed on distinct cores.
	snap := fixed.Ranks[0].Snapshot
	multi := 0
	for _, l := range snap.LWPs {
		if (l.Kind == core.KindOpenMP || l.Kind == core.KindMain) && l.ObservedCPUs.Count() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no thread observed on a new CPU after rebinding")
	}
}

// TestCheckpointIOMonitored: the master thread writes checkpoints through
// the shared filesystem; the monitor observes the I/O via /proc/<pid>/io
// and the contention between concurrently checkpointing ranks shows up as
// wall time (the Darshan-flavoured path).
func TestCheckpointIOMonitored(t *testing.T) {
	// Rank 0's I/O samples, copied off its stream (payloads are borrowed).
	var samples []export.IOSample
	mk := func(fsBW float64, record bool) *Result {
		mq := scaledMiniQMC()
		mq.Checkpoint = &Checkpoint{EverySteps: 2, Bytes: 200 << 20} // 200 MB
		mc := MonitorConfig{Enabled: true, Period: 100 * sim.Millisecond, CPU: -1}
		if record {
			mc.StreamFor = func(rank int, _ string) *export.Stream {
				if rank != 0 {
					return nil
				}
				s := &export.Stream{}
				s.Subscribe(func(ev export.Event) {
					if ev.Kind == export.EventIO {
						samples = append(samples, *ev.IO)
					}
				})
				return s
			}
		}
		res, err := Run(Config{
			Machine: topology.Frontier,
			App:     mq,
			Srun:    slurm.Options{NTasks: 8, CoresPerTask: 7},
			OMP:     openmp.Env{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores},
			Monitor: mc,
			FS:      &fsio.Params{BytesPerSec: fsBW, LatencyPerOp: sim.Millisecond},
			Seed:    55,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := mk(50e9, true)
	slow := mk(2e9, false)

	// The monitor saw the write counters.
	snap := fast.Ranks[0].Snapshot
	wantBytes := uint64(5) * (200 << 20) // 10 steps / every 2
	if snap.IOWriteBytes != wantBytes {
		t.Fatalf("monitored write bytes = %d, want %d", snap.IOWriteBytes, wantBytes)
	}
	if snap.IOWriteSyscall != 5 {
		t.Fatalf("write ops = %d, want 5", snap.IOWriteSyscall)
	}
	// Filesystem stats aggregate all 8 ranks.
	r, w, _, wops := fast.FS.Stats()
	if w != 8*wantBytes || wops != 40 {
		t.Fatalf("fs totals: read=%d written=%d wops=%d", r, w, wops)
	}
	// A slower filesystem makes the job measurably slower: 8 ranks x 1 GB
	// through a shared server.
	if slow.WallSeconds <= fast.WallSeconds*1.2 {
		t.Fatalf("slow FS wall %v vs fast %v: expected visible I/O contention",
			slow.WallSeconds, fast.WallSeconds)
	}
	// And the stream carries the series.
	if len(samples) == 0 || samples[len(samples)-1].WriteBytes != wantBytes {
		t.Fatalf("io stream: %d samples, want the last at %d bytes written", len(samples), wantBytes)
	}
}
