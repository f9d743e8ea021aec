package core

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"zerosum/internal/obs"
	"zerosum/internal/proc"
	"zerosum/internal/topology"
)

// writeProcTree lays out a /proc lookalike for this test process (RealFS
// derives the pid from os.Getpid, so the fixture must use it too).
func writeProcTree(t *testing.T, tids ...int) (root string, pid int) {
	t.Helper()
	root, pid = t.TempDir(), os.Getpid()
	cpus, err := topology.ParseCPUList("0-3")
	if err != nil {
		t.Fatal(err)
	}
	statusText := proc.RenderTaskStatus(proc.TaskStatus{
		Name: "alloc", State: proc.StateRunning, Tgid: pid, Pid: pid,
		Threads: len(tids), VmRSSKB: 2048, VmHWMKB: 4096, CpusAllowed: cpus,
		VoluntaryCtxt: 3, NonvoluntaryCtx: 1,
	})
	for _, tid := range tids {
		d := filepath.Join(root, strconv.Itoa(pid), "task", strconv.Itoa(tid))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(d, "stat"), proc.RenderTaskStat(proc.TaskStat{
			PID: tid, Comm: "alloc", State: proc.StateRunning,
			UTime: 100, STime: 10, NumThrs: len(tids), Processor: tid % 4,
		}))
		writeFile(t, filepath.Join(d, "status"), statusText)
	}
	pidDir := filepath.Join(root, strconv.Itoa(pid))
	writeFile(t, filepath.Join(pidDir, "status"), statusText)
	writeFile(t, filepath.Join(pidDir, "io"), proc.RenderTaskIO(proc.TaskIO{
		RChar: 1000, WChar: 500, SyscR: 10, SyscW: 5, ReadBytes: 4096, WriteBytes: 2048,
	}))
	writeFile(t, filepath.Join(root, "meminfo"), proc.RenderMeminfo(proc.Meminfo{
		MemTotalKB: 16 << 20, MemFreeKB: 8 << 20, MemAvailableKB: 12 << 20,
	}))
	writeFile(t, filepath.Join(root, "stat"), proc.RenderStat(proc.Stat{
		Aggregate: proc.CPUTimes{CPU: -1, User: 400, System: 40, Idle: 4000},
		PerCPU: []proc.CPUTimes{
			{CPU: 0, User: 100, System: 10, Idle: 1000},
			{CPU: 1, User: 100, System: 10, Idle: 1000},
			{CPU: 2, User: 100, System: 10, Idle: 1000},
			{CPU: 3, User: 100, System: 10, Idle: 1000},
		},
	}))
	return root, pid
}

func writeFile(t *testing.T, path, text string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorTickZeroSteadyStateAlloc is the tentpole gate for the sampling
// hot path: once the thread set is stable and every cache is warm, a full
// Tick — task listing, per-LWP stat+status, /proc/stat, meminfo, process
// status and io, all through the fd-cached RealFS — allocates nothing.
func TestMonitorTickZeroSteadyStateAlloc(t *testing.T) {
	root, pid := writeProcTree(t, os.Getpid(), 7001, 7002, 7003)
	_ = pid
	fs := &proc.RealFS{Root: root}
	defer fs.Close()

	now := time.Unix(0, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	m, err := New(Config{}, Deps{FS: fs, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Finish()

	// Warmup: first tick registers threads and opens descriptors, second
	// establishes /proc/stat baselines and settles buffer sizes.
	for i := 0; i < 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Tick allocates %.1f per run, want 0", avg)
	}
	if reads, parses := m.SampleSkips(); reads != 0 || parses != 0 {
		t.Fatalf("sample skips = %d/%d, want 0/0", reads, parses)
	}
}

// TestMonitorTickZeroAllocWithObs re-runs the zero-alloc gate with the
// whole self-observability layer on: phase span recording, stall
// detection and the budget watchdog must all stay off the heap — the
// obs.Recorder is pure atomics and the watchdog only does arithmetic.
func TestMonitorTickZeroAllocWithObs(t *testing.T) {
	root, _ := writeProcTree(t, os.Getpid(), 7001, 7002, 7003)
	fs := &proc.RealFS{Root: root}
	defer fs.Close()

	now := time.Unix(0, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	rec := obs.NewRecorder(64) // smaller than the tick count: exercises wrap
	m, err := New(Config{
		StallTicks: 3,
		Obs:        rec,
		Budget:     obs.Budget{Enabled: true},
	}, Deps{FS: fs, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Finish()

	for i := 0; i < 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Tick with obs+stall+budget allocates %.1f per run, want 0", avg)
	}
	// Every tick recorded its span and phases.
	samples := uint64(m.SelfStats().Samples)
	if got := rec.Count(obs.StageTick); got != samples {
		t.Errorf("tick spans = %d, samples = %d", got, samples)
	}
	if rec.Count(obs.StageScan) != samples || rec.Count(obs.StageSample) != samples {
		t.Errorf("phase spans: scan=%d sample=%d, want %d each",
			rec.Count(obs.StageScan), rec.Count(obs.StageSample), samples)
	}
	// The fixture's counters never change, so with StallTicks=3 every app
	// thread is eventually flagged — but never the monitor's own LWP.
	if m.StalledLWPs() == 0 {
		t.Error("static fixture threads should be flagged stalled")
	}
}

// TestMonitorTickZeroAllocWithAdaptive re-runs the zero-alloc gate with
// per-LWP adaptive sampling on. The fixture's counters never change, so
// every thread quiesces and the skip path — the one adaptive sampling adds
// to the hot loop — runs on most ticks; neither it nor the EWMA update may
// touch the heap.
func TestMonitorTickZeroAllocWithAdaptive(t *testing.T) {
	root, _ := writeProcTree(t, os.Getpid(), 7001, 7002, 7003)
	fs := &proc.RealFS{Root: root}
	defer fs.Close()

	now := time.Unix(0, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	m, err := New(Config{
		Adaptive: AdaptiveConfig{Enabled: true},
	}, Deps{FS: fs, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Finish()

	for i := 0; i < 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Tick with adaptive sampling allocates %.1f per run, want 0", avg)
	}
	if m.AdaptiveSkips() == 0 {
		t.Error("static fixture should have triggered adaptive skips")
	}
}

// TestAdaptiveStretchCap table-drives the interaction between MaxStretch
// and StallTicks: stall detection always wins when it is tighter.
func TestAdaptiveStretchCap(t *testing.T) {
	cases := []struct {
		maxStretch, stallTicks, want int
	}{
		{8, 0, 8},   // no stall detection: MaxStretch rules
		{8, 3, 3},   // stall window tighter than MaxStretch
		{2, 5, 2},   // MaxStretch tighter than the stall window
		{8, 1, 1},   // one-tick stall window: no stretching at all
		{0, 0, 8},   // defaults applied
		{16, 0, 16}, // larger cap honoured
	}
	for _, c := range cases {
		m := &Monitor{cfg: Config{
			StallTicks: c.stallTicks,
			Adaptive:   AdaptiveConfig{Enabled: true, MaxStretch: c.maxStretch}.withDefaults(),
		}}
		if got := m.stretchCap(); got != c.want {
			t.Errorf("stretchCap(MaxStretch=%d, StallTicks=%d) = %d, want %d",
				c.maxStretch, c.stallTicks, got, c.want)
		}
	}
}

// TestMonitorScanWorkersEquivalent runs the same fixture serially and with a
// sharded scan phase; every published series and summary row must match.
func TestMonitorScanWorkersEquivalent(t *testing.T) {
	root, _ := writeProcTree(t, os.Getpid(), 7001, 7002, 7003)
	run := func(workers int) Snapshot {
		fs := &proc.RealFS{Root: root}
		defer fs.Close()
		now := time.Unix(0, 0)
		clock := func() time.Time { now = now.Add(time.Second); return now }
		m, err := New(Config{ScanWorkers: workers}, Deps{FS: fs, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Finish()
		for i := 0; i < 5; i++ {
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return m.Snapshot()
	}
	serial, sharded := run(1), run(4)
	if len(serial.LWPs) != len(sharded.LWPs) {
		t.Fatalf("LWP rows: serial %d, sharded %d", len(serial.LWPs), len(sharded.LWPs))
	}
	for i := range serial.LWPs {
		a, b := serial.LWPs[i], sharded.LWPs[i]
		if a.TID != b.TID || a.UTimePct != b.UTimePct || a.STimePct != b.STimePct ||
			a.VCtx != b.VCtx || a.NVCtx != b.NVCtx || !a.Affinity.Equal(b.Affinity) {
			t.Errorf("LWP row %d differs: serial %+v, sharded %+v", i, a, b)
		}
	}
	if serial.Samples != sharded.Samples || serial.MemPeakRSSKB != sharded.MemPeakRSSKB {
		t.Errorf("summary differs: serial %+v vs sharded %+v", serial.Samples, sharded.Samples)
	}
}

// TestMonitorThreadExitClosesReader checks fd-cache invalidation end to end:
// when a thread disappears from the task listing its cached descriptors are
// closed, and the monitor keeps sampling the remaining threads.
func TestMonitorThreadExitClosesReader(t *testing.T) {
	root, pid := writeProcTree(t, os.Getpid(), 7001)
	fs := &proc.RealFS{Root: root}
	defer fs.Close()
	now := time.Unix(0, 0)
	clock := func() time.Time { now = now.Add(time.Second); return now }
	m, err := New(Config{}, Deps{FS: fs, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Finish()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := m.liveThreadCount(); got != 2 {
		t.Fatalf("live threads = %d, want 2", got)
	}
	// Thread 7001 exits: its task dir vanishes from the listing.
	if err := os.RemoveAll(filepath.Join(root, strconv.Itoa(pid), "task", "7001")); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := m.liveThreadCount(); got != 1 {
		t.Fatalf("live threads after exit = %d, want 1", got)
	}
	if ts := m.threads[7001]; ts == nil || !ts.gone || ts.reader != nil {
		t.Fatalf("exited thread state not invalidated: %+v", ts)
	}
	// The exited thread still appears in the end-of-run summary.
	if got := len(m.Snapshot().LWPs); got != 2 {
		t.Fatalf("summary rows = %d, want 2", got)
	}
}
