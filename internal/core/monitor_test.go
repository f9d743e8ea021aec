package core

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zerosum/internal/export"
	"zerosum/internal/gpu"
	"zerosum/internal/proc"
	"zerosum/internal/sim"
	"zerosum/internal/topology"
)

// fakeFS is a scripted proc.FS whose state tests mutate between ticks.
type fakeFS struct {
	pid      int
	host     string
	tasks    []int
	stats    map[int]proc.TaskStat
	statuses map[int]proc.TaskStatus
	mem      proc.Meminfo
	io       proc.TaskIO
	stat     proc.Stat
	procStat proc.TaskStatus
	failTask map[int]bool
}

func newFakeFS() *fakeFS {
	f := &fakeFS{
		pid:      1000,
		host:     "testnode",
		stats:    map[int]proc.TaskStat{},
		statuses: map[int]proc.TaskStatus{},
		failTask: map[int]bool{},
		mem:      proc.Meminfo{MemTotalKB: 16 << 20, MemFreeKB: 8 << 20, MemAvailableKB: 10 << 20},
		procStat: proc.TaskStatus{Name: "app", State: proc.StateRunning, Tgid: 1000, Pid: 1000,
			Threads: 1, VmRSSKB: 1 << 20, VmHWMKB: 1 << 20, CpusAllowed: topology.RangeCPUSet(0, 3)},
	}
	f.addThread(1000, "app", proc.StateRunning, topology.RangeCPUSet(0, 3))
	f.stat = proc.Stat{
		Aggregate: proc.CPUTimes{CPU: -1},
		PerCPU: []proc.CPUTimes{
			{CPU: 0}, {CPU: 1}, {CPU: 2}, {CPU: 3},
		},
	}
	return f
}

func (f *fakeFS) addThread(tid int, comm string, state proc.TaskState, aff topology.CPUSet) {
	f.tasks = append(f.tasks, tid)
	f.stats[tid] = proc.TaskStat{PID: tid, Comm: comm, State: state, NumThrs: len(f.tasks)}
	f.statuses[tid] = proc.TaskStatus{Name: comm, State: state, Tgid: f.pid, Pid: tid,
		Threads: len(f.tasks), CpusAllowed: aff}
}

// burn adds CPU jiffies to a thread (utime, stime).
func (f *fakeFS) burn(tid int, du, ds uint64) {
	st := f.stats[tid]
	st.UTime += du
	st.STime += ds
	f.stats[tid] = st
}

func (f *fakeFS) SelfPID() int     { return f.pid }
func (f *fakeFS) Hostname() string { return f.host }
func (f *fakeFS) Tasks(pid int) ([]int, error) {
	if pid != f.pid {
		return nil, fmt.Errorf("no process %d", pid)
	}
	return append([]int(nil), f.tasks...), nil
}
func (f *fakeFS) TaskStat(pid, tid int) ([]byte, error) {
	if f.failTask[tid] {
		return nil, fmt.Errorf("task %d vanished", tid)
	}
	st, ok := f.stats[tid]
	if !ok {
		return nil, fmt.Errorf("no task %d", tid)
	}
	return []byte(proc.RenderTaskStat(st)), nil
}
func (f *fakeFS) TaskStatus(pid, tid int) ([]byte, error) {
	st, ok := f.statuses[tid]
	if !ok {
		return nil, fmt.Errorf("no task %d", tid)
	}
	return []byte(proc.RenderTaskStatus(st)), nil
}
func (f *fakeFS) ProcessStatus(pid int) ([]byte, error) {
	return []byte(proc.RenderTaskStatus(f.procStat)), nil
}
func (f *fakeFS) ProcessIO(pid int) ([]byte, error) {
	return []byte(proc.RenderTaskIO(f.io)), nil
}
func (f *fakeFS) Meminfo() ([]byte, error) {
	return []byte(proc.RenderMeminfo(f.mem)), nil
}
func (f *fakeFS) Stat() ([]byte, error) {
	return []byte(proc.RenderStat(f.stat)), nil
}

var _ proc.FS = (*fakeFS)(nil)

// testClock is an advanceable clock.
type testClock struct{ now time.Time }

func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *testClock) fn() func() time.Time    { return func() time.Time { return c.now } }

// recorded holds a copy of every sample a monitor published, in order:
// what a CSVSink or FrameLog on the stream sees.
type recorded struct {
	lwp []export.LWPSample
	hwt []export.HWTSample
	gpu []export.GPUSample
	mem []export.MemSample
	io  []export.IOSample
}

// record returns a stream for Config.Stream and the samples published on
// it. Payloads are copied because the monitor lends them only for the call.
func record() (*export.Stream, *recorded) {
	s, r := &export.Stream{}, &recorded{}
	s.Subscribe(func(ev export.Event) {
		switch ev.Kind {
		case export.EventLWP:
			r.lwp = append(r.lwp, *ev.LWP)
		case export.EventHWT:
			r.hwt = append(r.hwt, *ev.HWT)
		case export.EventGPU:
			r.gpu = append(r.gpu, *ev.GPU)
		case export.EventMem:
			r.mem = append(r.mem, *ev.Mem)
		case export.EventIO:
			r.io = append(r.io, *ev.IO)
		}
	})
	return s, r
}

func newTestMonitor(t *testing.T, fs proc.FS, cfg Config) (*Monitor, *testClock) {
	t.Helper()
	clk := &testClock{now: time.Date(2023, 11, 12, 9, 0, 0, 0, time.UTC)}
	m, err := New(cfg, Deps{FS: fs, Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	return m, clk
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, Deps{}); err == nil {
		t.Fatal("nil FS should error")
	}
	if _, err := New(Config{}, Deps{FS: newFakeFS()}); err == nil {
		t.Fatal("nil clock should error")
	}
}

func TestTickDiscoversThreadsAndUtilization(t *testing.T) {
	fs := newFakeFS()
	fs.addThread(1001, "omp", proc.StateRunning, topology.NewCPUSet(1))
	stream, rec := record()
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second, Stream: stream})
	m.HintKind(1001, KindOpenMP)

	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	// Thread 1001 burns 90 jiffies user + 10 sys over the next second.
	fs.burn(1001, 90, 10)
	fs.burn(1000, 50, 0)
	clk.advance(time.Second)
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	snap := m.Snapshot()
	if len(snap.LWPs) != 2 {
		t.Fatalf("threads = %d", len(snap.LWPs))
	}
	byTID := map[int]ThreadSummary{}
	for _, l := range snap.LWPs {
		byTID[l.TID] = l
	}
	if byTID[1000].Label != "Main" {
		t.Fatalf("main label = %q", byTID[1000].Label)
	}
	if byTID[1001].Label != "OpenMP" {
		t.Fatalf("omp label = %q", byTID[1001].Label)
	}
	// Utilization over the 1-second observed window.
	if u := byTID[1001].UTimePct; u < 85 || u > 95 {
		t.Fatalf("omp utime%% = %v, want ~90", u)
	}
	if s := byTID[1001].STimePct; s < 8 || s > 12 {
		t.Fatalf("omp stime%% = %v, want ~10", s)
	}
	// Per-sample series captured.
	if len(rec.lwp) != 4 { // 2 threads x 2 ticks
		t.Fatalf("lwp samples = %d", len(rec.lwp))
	}
}

func TestMainAlsoOpenMPLabel(t *testing.T) {
	fs := newFakeFS()
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second})
	m.HintKind(1000, KindOpenMP) // OMPT reports the master as a team member
	m.Tick()
	clk.advance(time.Second)
	m.Tick()
	snap := m.Snapshot()
	if snap.LWPs[0].Label != "Main, OpenMP" {
		t.Fatalf("label = %q, want 'Main, OpenMP'", snap.LWPs[0].Label)
	}
}

func TestZeroSumSelfClassification(t *testing.T) {
	fs := newFakeFS()
	fs.addThread(1002, "zerosum", proc.StateSleeping, topology.NewCPUSet(3))
	m, clk := newTestMonitor(t, fs, Config{})
	m.SetSelfTID(1002)
	m.Tick()
	clk.advance(time.Second)
	m.Tick()
	snap := m.Snapshot()
	var found bool
	for _, l := range snap.LWPs {
		if l.TID == 1002 {
			found = true
			if l.Label != "ZeroSum" {
				t.Fatalf("label = %q", l.Label)
			}
		}
	}
	if !found {
		t.Fatal("zerosum thread missing")
	}
}

func TestHWTSampling(t *testing.T) {
	fs := newFakeFS()
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second})
	m.Tick() // baseline
	// CPU1: 60 user, 10 sys, 30 idle over the second.
	fs.stat.PerCPU[1].User += 60
	fs.stat.PerCPU[1].System += 10
	fs.stat.PerCPU[1].Idle += 30
	// CPU2 fully idle.
	fs.stat.PerCPU[2].Idle += 100
	clk.advance(time.Second)
	m.Tick()
	m.Finish()
	snap := m.Snapshot()
	by := map[int]HWTSummary{}
	for _, h := range snap.HWTs {
		by[h.CPU] = h
	}
	if h := by[1]; h.UserPct < 59 || h.UserPct > 61 || h.SysPct < 9 || h.SysPct > 11 {
		t.Fatalf("cpu1 = %+v", h)
	}
	if h := by[2]; h.IdlePct < 99 {
		t.Fatalf("cpu2 idle = %+v", h)
	}
	// CPUs outside the process affinity (none here: 0-3 all in) —
	// restrict affinity and confirm filtering.
	fs.procStat.CpusAllowed = topology.NewCPUSet(1)
	m2, clk2 := newTestMonitor(t, fs, Config{Period: time.Second})
	m2.Tick()
	fs.stat.PerCPU[2].Idle += 100
	fs.stat.PerCPU[1].User += 100
	clk2.advance(time.Second)
	m2.Tick()
	snap2 := m2.Snapshot()
	if len(snap2.HWTs) != 1 || snap2.HWTs[0].CPU != 1 {
		t.Fatalf("HWT filter: %+v", snap2.HWTs)
	}
}

func TestMemoryWatermarks(t *testing.T) {
	fs := newFakeFS()
	stream, rec := record()
	m, clk := newTestMonitor(t, fs, Config{Stream: stream})
	m.Tick()
	fs.mem.MemFreeKB = 1 << 20
	fs.procStat.VmRSSKB = 4 << 20
	fs.procStat.VmHWMKB = 4 << 20
	clk.advance(time.Second)
	m.Tick()
	fs.mem.MemFreeKB = 6 << 20
	clk.advance(time.Second)
	m.Tick()
	snap := m.Snapshot()
	if snap.MemMinFreeKB != 1<<20 {
		t.Fatalf("min free = %d", snap.MemMinFreeKB)
	}
	if snap.MemPeakRSSKB != 4<<20 {
		t.Fatalf("peak rss = %d", snap.MemPeakRSSKB)
	}
	if len(rec.mem) != 3 {
		t.Fatalf("mem samples = %d", len(rec.mem))
	}
}

func TestGPUAggregation(t *testing.T) {
	fs := newFakeFS()
	var now sim.Time
	dev := gpu.NewDevice(gpu.DeviceInfo{VisibleIndex: 0, TrueIndex: 4, Model: "test"},
		gpu.DefaultParams(), func() sim.Time { return now }, nil)
	smi := gpu.NewSimSMI([]*gpu.Device{dev}, nil)
	clk := &testClock{now: time.Unix(0, 0)}
	stream, rec := record()
	m, err := New(Config{Stream: stream}, Deps{FS: fs, SMI: smi, Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	m.Tick() // baseline sample at t=0
	dev.Submit(500*sim.Millisecond, 0)
	now = 1 * sim.Second
	clk.advance(time.Second)
	m.Tick()
	now = 2 * sim.Second
	clk.advance(time.Second)
	m.Tick()
	snap := m.Snapshot()
	if len(snap.GPUs) != 1 {
		t.Fatalf("gpus = %d", len(snap.GPUs))
	}
	if snap.GPUs[0].TrueIndex != 4 {
		t.Fatalf("true index = %d", snap.GPUs[0].TrueIndex)
	}
	var busy *GPUMetric
	for i := range snap.GPUs[0].Metrics {
		if snap.GPUs[0].Metrics[i].Name == "Device Busy %" {
			busy = &snap.GPUs[0].Metrics[i]
		}
	}
	if busy == nil {
		t.Fatal("no busy metric")
	}
	// Samples: 0 (baseline), ~50 (busy second), 0 (idle second).
	if busy.Agg.Max < 45 || busy.Agg.Max > 55 {
		t.Fatalf("busy max = %v, want ~50", busy.Agg.Max)
	}
	if busy.Agg.Min != 0 {
		t.Fatalf("busy min = %v", busy.Agg.Min)
	}
	if len(rec.gpu) != 3*len(gpu.MetricNames) {
		t.Fatalf("gpu samples = %d", len(rec.gpu))
	}
}

func TestHeartbeat(t *testing.T) {
	fs := newFakeFS()
	var hb strings.Builder
	m, clk := newTestMonitor(t, fs, Config{HeartbeatEvery: 2, Heartbeat: &hb})
	for i := 0; i < 4; i++ {
		m.Tick()
		clk.advance(time.Second)
	}
	if got := strings.Count(hb.String(), "heartbeat"); got != 2 {
		t.Fatalf("heartbeats = %d, want 2:\n%s", got, hb.String())
	}
	if !strings.Contains(hb.String(), "threads=1") {
		t.Fatalf("heartbeat content: %s", hb.String())
	}
}

func TestDeadlockDetection(t *testing.T) {
	fs := newFakeFS()
	// Main thread asleep forever, never accruing CPU.
	st := fs.stats[1000]
	st.State = proc.StateSleeping
	fs.stats[1000] = st
	m, clk := newTestMonitor(t, fs, Config{DeadlockSamples: 3})
	for i := 0; i < 5; i++ {
		m.Tick()
		clk.advance(time.Second)
	}
	if !m.DeadlockSuspected() {
		t.Fatal("idle threads should trigger the deadlock hint")
	}
	// A progressing thread clears it.
	fs2 := newFakeFS()
	m2, clk2 := newTestMonitor(t, fs2, Config{DeadlockSamples: 3})
	for i := 0; i < 5; i++ {
		fs2.burn(1000, 50, 1)
		m2.Tick()
		clk2.advance(time.Second)
	}
	if m2.DeadlockSuspected() {
		t.Fatal("busy thread must not trigger deadlock hint")
	}
}

func TestTransientThreadSkipped(t *testing.T) {
	fs := newFakeFS()
	fs.addThread(1003, "flash", proc.StateRunning, topology.NewCPUSet(0))
	fs.failTask[1003] = true // dies between listing and stat read
	m, _ := newTestMonitor(t, fs, Config{})
	if err := m.Tick(); err != nil {
		t.Fatalf("transient thread should be skipped, got %v", err)
	}
	snap := m.Snapshot()
	if len(snap.LWPs) != 1 {
		t.Fatalf("threads = %d, want 1 (transient skipped)", len(snap.LWPs))
	}
}

func TestGoneThreadMarked(t *testing.T) {
	fs := newFakeFS()
	fs.addThread(1004, "w", proc.StateRunning, topology.NewCPUSet(0))
	m, clk := newTestMonitor(t, fs, Config{})
	m.Tick()
	// Thread exits.
	fs.tasks = fs.tasks[:1]
	clk.advance(time.Second)
	m.Tick()
	if m.liveThreadCount() != 1 {
		t.Fatalf("live = %d", m.liveThreadCount())
	}
	// It still appears in the final report (observed during execution).
	if len(m.Snapshot().LWPs) != 2 {
		t.Fatal("exited thread should stay in the summary")
	}
}

func TestMPIInfoAndP2P(t *testing.T) {
	fs := newFakeFS()
	m, _ := newTestMonitor(t, fs, Config{})
	m.SetMPIInfo(3, 8)
	m.RecordP2P(true, 4, 1000)
	m.RecordP2P(false, 2, 500)
	m.RecordP2P(false, 2, 250)
	snap := m.Snapshot()
	if snap.Rank != 3 || snap.Size != 8 {
		t.Fatalf("rank/size = %d/%d", snap.Rank, snap.Size)
	}
	if m.SentBytes()[4] != 1000 || m.RecvBytes()[2] != 750 {
		t.Fatalf("p2p accounting: %v %v", m.SentBytes(), m.RecvBytes())
	}
}

func TestStreamPublishes(t *testing.T) {
	fs := newFakeFS()
	var stream export.Stream
	events := map[export.EventKind]int{}
	stream.Subscribe(func(ev export.Event) { events[ev.Kind]++ })
	clk := &testClock{now: time.Unix(0, 0)}
	m, err := New(Config{Stream: &stream}, Deps{FS: fs, Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	m.Tick()
	for i := range fs.stat.PerCPU {
		fs.stat.PerCPU[i].Idle += 100
	}
	clk.advance(time.Second)
	m.Tick()
	if events[export.EventLWP] == 0 || events[export.EventMem] == 0 {
		t.Fatalf("events: %v", events)
	}
	if events[export.EventHWT] == 0 {
		t.Fatalf("expected HWT events after second tick: %v", events)
	}
}

func TestFinishBlocksTicks(t *testing.T) {
	fs := newFakeFS()
	m, _ := newTestMonitor(t, fs, Config{})
	m.Tick()
	m.Finish()
	if err := m.Tick(); err == nil {
		t.Fatal("tick after finish should error")
	}
	if m.Duration() < 0 {
		t.Fatal("duration")
	}
}

func TestCSVExports(t *testing.T) {
	fs := newFakeFS()
	var lwp, hwt, mem strings.Builder
	sink := export.NewCSVSink(&lwp, &hwt, nil, &mem)
	var stream export.Stream
	stream.Subscribe(sink.Subscriber())
	m, clk := newTestMonitor(t, fs, Config{Stream: &stream})
	m.Tick()
	clk.advance(time.Second)
	fs.burn(1000, 10, 2)
	m.Tick()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := export.ReadLWPCSV(strings.NewReader(lwp.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("lwp rows = %d", len(back))
	}
}

func TestAffinityChangeTracked(t *testing.T) {
	fs := newFakeFS()
	m, clk := newTestMonitor(t, fs, Config{})
	m.Tick()
	st := fs.statuses[1000]
	st.CpusAllowed = topology.NewCPUSet(2)
	fs.statuses[1000] = st
	clk.advance(time.Second)
	m.Tick()
	if m.threads[1000].affChanges != 1 {
		t.Fatalf("affChanges = %d", m.threads[1000].affChanges)
	}
}

func TestObservedCPUMigrationTracking(t *testing.T) {
	fs := newFakeFS()
	m, clk := newTestMonitor(t, fs, Config{})
	m.Tick()
	for _, cpu := range []int{1, 2, 1} {
		st := fs.stats[1000]
		st.Processor = cpu
		fs.stats[1000] = st
		clk.advance(time.Second)
		m.Tick()
	}
	snap := m.Snapshot()
	if snap.LWPs[0].ObservedCPUs.Count() != 3 { // CPUs 0,1,2
		t.Fatalf("observed = %s", snap.LWPs[0].ObservedCPUs)
	}
	if snap.LWPs[0].CPUChanges != 3 {
		t.Fatalf("cpu changes = %d", snap.LWPs[0].CPUChanges)
	}
}

func TestSampleIOSeries(t *testing.T) {
	fs := newFakeFS()
	stream, rec := record()
	m, clk := newTestMonitor(t, fs, Config{Stream: stream})
	m.Tick()
	fs.io = proc.TaskIO{RChar: 100, WChar: 200, SyscR: 1, SyscW: 2, ReadBytes: 100, WriteBytes: 200}
	clk.advance(time.Second)
	m.Tick()
	snap := m.Snapshot()
	if snap.IOWriteBytes != 200 || snap.IOReadBytes != 100 {
		t.Fatalf("io totals: %+v", snap)
	}
	if len(rec.io) != 2 || rec.io[1].WriteBytes != 200 {
		t.Fatalf("io samples: %+v", rec.io)
	}
}

// fakeRebinder records SetAffinity calls against the fake FS.
type fakeRebinder struct {
	fs    *fakeFS
	calls []int
	fail  bool
}

func (r *fakeRebinder) SetAffinity(tid int, cpus topology.CPUSet) error {
	if r.fail {
		return fmt.Errorf("nope")
	}
	r.calls = append(r.calls, tid)
	st := r.fs.statuses[tid]
	st.CpusAllowed = cpus
	r.fs.statuses[tid] = st
	return nil
}

func TestAutoRebindViaFakeFS(t *testing.T) {
	fs := newFakeFS()
	// Three busy threads all pinned to CPU 0 within a 0-3 cpuset.
	for _, tid := range []int{1001, 1002} {
		fs.addThread(tid, "omp", proc.StateRunning, topology.NewCPUSet(0))
	}
	st := fs.statuses[1000]
	st.CpusAllowed = topology.NewCPUSet(0)
	fs.statuses[1000] = st

	rb := &fakeRebinder{fs: fs}
	clk := &testClock{now: time.Unix(0, 0)}
	m, err := New(Config{Period: time.Second, RebindAfter: 2},
		Deps{FS: fs, Clock: clk.fn(), Rebinder: rb})
	if err != nil {
		t.Fatal(err)
	}
	// OMPT classifies the workers; "Other" threads (MPI helpers, GPU
	// runtimes) are deliberately never rebound.
	m.HintKind(1001, KindOpenMP)
	m.HintKind(1002, KindOpenMP)
	for i := 0; i < 4; i++ {
		for _, tid := range []int{1000, 1001, 1002} {
			fs.burn(tid, 30, 1) // each ~30% busy: piled up
		}
		m.Tick()
		clk.advance(time.Second)
	}
	if len(m.Rebinds()) == 0 {
		t.Fatal("no rebinds recorded")
	}
	if len(rb.calls) != 3 {
		t.Fatalf("rebinder calls = %v, want 3 threads", rb.calls)
	}
	// Targets are distinct PUs of the process cpuset.
	seen := map[int]bool{}
	for _, ev := range m.Rebinds() {
		c := ev.To.First()
		if seen[c] {
			t.Fatalf("duplicate target %d", c)
		}
		seen[c] = true
	}
	// One-shot: further ticks do not rebind again.
	n := len(rb.calls)
	for i := 0; i < 3; i++ {
		fs.burn(1000, 30, 0)
		m.Tick()
		clk.advance(time.Second)
	}
	if len(rb.calls) != n {
		t.Fatal("rebind should act once")
	}
}

func TestAutoRebindRespectsHealthyRuns(t *testing.T) {
	fs := newFakeFS()
	fs.addThread(1001, "omp", proc.StateRunning, topology.NewCPUSet(1))
	rb := &fakeRebinder{fs: fs}
	clk := &testClock{now: time.Unix(0, 0)}
	m, err := New(Config{Period: time.Second, RebindAfter: 2},
		Deps{FS: fs, Clock: clk.fn(), Rebinder: rb})
	if err != nil {
		t.Fatal(err)
	}
	// Threads on different CPUs: no pileup.
	for i := 0; i < 5; i++ {
		fs.burn(1000, 50, 0)
		fs.burn(1001, 50, 0)
		m.Tick()
		clk.advance(time.Second)
	}
	if len(rb.calls) != 0 {
		t.Fatalf("healthy run rebound: %v", rb.calls)
	}
}

// corruptFS wraps fakeFS to return a garbage stat row for chosen tasks,
// modelling a torn read of an exiting thread's /proc entry.
type corruptFS struct {
	*fakeFS
	badStat map[int]bool
}

func (c *corruptFS) TaskStat(pid, tid int) ([]byte, error) {
	if c.badStat[tid] {
		return []byte("not a stat line"), nil
	}
	return c.fakeFS.TaskStat(pid, tid)
}

func TestTickCountsSkippedThreads(t *testing.T) {
	base := newFakeFS()
	base.addThread(1001, "good", proc.StateRunning, topology.NewCPUSet(1))
	base.addThread(1002, "torn", proc.StateRunning, topology.NewCPUSet(2))
	base.addThread(1003, "vanishing", proc.StateRunning, topology.NewCPUSet(3))
	base.failTask[1003] = true // read error between listing and read
	fs := &corruptFS{fakeFS: base, badStat: map[int]bool{1002: true}}

	stream, rec := record()
	m, _ := newTestMonitor(t, fs, Config{Period: time.Second, Stream: stream})
	if err := m.Tick(); err != nil {
		t.Fatalf("a torn row must not abort the sample: %v", err)
	}
	reads, parses := m.SampleSkips()
	if reads != 1 || parses != 1 {
		t.Fatalf("SampleSkips() = (%d, %d), want (1, 1)", reads, parses)
	}
	// The healthy threads were still sampled this tick.
	if got := len(rec.lwp); got != 2 {
		t.Fatalf("sampled %d threads, want 2", got)
	}
	snap := m.Snapshot()
	if snap.LWPReadSkips != 1 || snap.LWPParseSkips != 1 {
		t.Fatalf("snapshot skips = (%d, %d), want (1, 1)", snap.LWPReadSkips, snap.LWPParseSkips)
	}
}

// TestStalledThreadExitEmitsFinalNotStalledSample: when a thread dies while
// flagged stalled, the monitor must publish one last Stalled=false sample
// for it — downstream per-TID gauges (aggd's zerosum_lwp_stalled) clear only
// on an explicit event and would otherwise pin the dead TID forever.
func TestStalledThreadExitEmitsFinalNotStalledSample(t *testing.T) {
	fs := newFakeFS()
	fs.addThread(1001, "worker", proc.StateSleeping, topology.NewCPUSet(1))
	var stream export.Stream
	var worker []export.LWPSample
	stream.Subscribe(func(ev export.Event) {
		if ev.Kind == export.EventLWP && ev.LWP.TID == 1001 {
			worker = append(worker, *ev.LWP)
		}
	})
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second, StallTicks: 3, Stream: &stream})

	// The worker never progresses: after StallTicks samples it is stalled.
	for i := 0; i < 5; i++ {
		fs.burn(1000, 50, 5)
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	if got := m.StalledLWPs(); got != 1 {
		t.Fatalf("StalledLWPs = %d, want 1 before the worker exits", got)
	}
	if len(worker) == 0 || !worker[len(worker)-1].Stalled {
		t.Fatalf("worker's last live sample not stalled: %+v", worker)
	}

	// The worker exits between ticks: the next listing no longer has it.
	fs.tasks = []int{1000}
	fs.burn(1000, 50, 5)
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	last := worker[len(worker)-1]
	if last.Stalled {
		t.Fatal("dead worker's final sample still stalled; downstream gauges would leak")
	}
	if got := m.StalledLWPs(); got != 0 {
		t.Fatalf("StalledLWPs = %d, want 0 after the stalled thread exited", got)
	}
	m.Finish()
	snap := m.Snapshot()
	for _, l := range snap.LWPs {
		if l.TID == 1001 {
			if l.Stalled {
				t.Fatal("snapshot still flags the dead worker stalled")
			}
			if l.StallEvents != 1 {
				t.Fatalf("stall events = %d, want the episode history kept", l.StallEvents)
			}
		}
	}
}

// TestPublishedSelfStatsConcurrentWithTicks hammers PublishedSelfStats from
// another goroutine while the monitor ticks; under `go test -race` this
// proves the /debug/obs read path shares no unsynchronized state with Tick.
func TestPublishedSelfStatsConcurrentWithTicks(t *testing.T) {
	fs := newFakeFS()
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second})

	if s := m.PublishedSelfStats(); s.Samples != 0 {
		t.Fatalf("pre-tick published samples = %d, want 0", s.Samples)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := m.PublishedSelfStats()
			if s.Samples < prev {
				t.Errorf("published samples went backwards: %d after %d", s.Samples, prev)
				return
			}
			prev = s.Samples
		}
	}()

	const ticks = 300
	for i := 0; i < ticks; i++ {
		fs.burn(1000, 1, 0)
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	close(stop)
	wg.Wait()
	m.Finish()

	if got := m.PublishedSelfStats(); got.Samples != ticks {
		t.Fatalf("published samples = %d, want %d", got.Samples, ticks)
	}
	if live, pub := m.SelfStats(), m.PublishedSelfStats(); live != pub {
		t.Fatalf("post-Finish published stats diverged:\nlive %+v\npub  %+v", live, pub)
	}
}

// TestSnapshotFoldsPublishedSamples: the report's HWT table and memory
// total are folds kept as samples are published, so they equal, bit for
// bit, a replay of the stream, which is all a monitor leaves behind. The
// affinity covers two of six CPUs, the jiffy splits give inexact means, and
// the memory total moves, so every part of the fold is exercised.
func TestSnapshotFoldsPublishedSamples(t *testing.T) {
	fs := newFakeFS()
	fs.procStat.CpusAllowed = topology.NewCPUSet(1, 4)
	fs.stat.PerCPU = make([]proc.CPUTimes, 6)
	for c := range fs.stat.PerCPU {
		fs.stat.PerCPU[c].CPU = c
	}
	stream, rec := record()
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second, Stream: stream})
	for tick := 0; tick < 12; tick++ {
		for c := range fs.stat.PerCPU {
			row := &fs.stat.PerCPU[c]
			row.User += uint64(7*tick + 3*c + 1)
			row.System += uint64(tick%3 + c%2)
			row.Idle += uint64(13 + 5*((tick+c)%4))
		}
		fs.mem.MemTotalKB = uint64(16<<20 + 4*tick)
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	m.Finish()
	snap := m.Snapshot()

	var want []HWTSummary
	for _, cpu := range []int{1, 4} {
		var sum hwtSum
		for k := range rec.hwt {
			if rec.hwt[k].CPU == cpu {
				sum.add(&rec.hwt[k])
			}
		}
		n := float64(sum.n)
		want = append(want, HWTSummary{CPU: cpu, IdlePct: sum.idle / n, SysPct: sum.sys / n, UserPct: sum.user / n})
	}
	if !reflect.DeepEqual(snap.HWTs, want) {
		t.Errorf("HWT rows %+v, want the means of the published samples %+v", snap.HWTs, want)
	}
	if last := rec.mem[len(rec.mem)-1].TotalKB; snap.MemTotalKB != last || last != 16<<20+44 {
		t.Errorf("MemTotalKB %d, want the last published total %d (= %d)", snap.MemTotalKB, last, 16<<20+44)
	}
}

// TestRetainedHeapFlat: with its CSV log on, a monitor holds no more after
// ten times the ticks. Every sample leaves through the stream, so the heap
// a long run retains is bounded by the thread and CPU count, not by time.
// 64 CPUs and 8 threads publish about 3.5 KiB of samples a tick, so the
// 900 extra ticks would retain about 3 MiB if anything kept them.
func TestRetainedHeapFlat(t *testing.T) {
	const n, bound = 100, 256 << 10
	fs := newFakeFS()
	fs.stat.PerCPU = make([]proc.CPUTimes, 64)
	for c := range fs.stat.PerCPU {
		fs.stat.PerCPU[c].CPU = c
	}
	for tid := 1001; tid < 1008; tid++ {
		fs.addThread(tid, "omp", proc.StateRunning, topology.NewCPUSet(tid-1000))
	}
	sink := export.NewCSVSink(io.Discard, io.Discard, io.Discard, io.Discard)
	var stream export.Stream
	stream.Subscribe(sink.Subscriber())
	m, clk := newTestMonitor(t, fs, Config{Period: time.Second, Stream: &stream})
	tick := func(ticks int) uint64 {
		for k := 0; k < ticks; k++ {
			for c := range fs.stat.PerCPU {
				fs.stat.PerCPU[c].User += uint64(1 + c%5)
				fs.stat.PerCPU[c].Idle += 10
			}
			for _, tid := range fs.tasks {
				fs.burn(tid, 3, 1)
			}
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
			clk.advance(time.Second)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	short := tick(n)
	long := tick(9 * n) // 10*n ticks in all
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	if grew := int64(long) - int64(short); grew >= bound {
		t.Fatalf("retained heap grew %d bytes from %d to %d ticks, want < %d", grew, n, 10*n, bound)
	}
}
