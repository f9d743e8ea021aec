package zerosum

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"zerosum/internal/openmp"
	"zerosum/internal/topology"
)

func TestFacadeSimulatedJob(t *testing.T) {
	mq := DefaultMiniQMC()
	mq.Steps = 6
	res, err := RunJob(JobConfig{
		Machine: topology.Frontier,
		App:     mq,
		Srun:    SrunOptions{NTasks: 8, CoresPerTask: 7},
		OMP:     OMPEnv{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores},
		Monitor: JobMonitor{Enabled: true},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSeconds <= 0 {
		t.Fatal("no runtime")
	}
	var sb strings.Builder
	if err := WriteReport(&sb, res.Ranks[0].Snapshot, ReportOptions{Contention: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "LWP (thread) Summary:") {
		t.Fatalf("report: %s", sb.String())
	}
	if ws := Evaluate(res.Ranks[0].Snapshot, EvalThresholds{}); ws == nil {
		_ = ws // a clean run may produce no warnings; just exercise the path
	}
}

func TestFacadeMachineAndLstopo(t *testing.T) {
	m, err := MachineByName("laptop")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Lstopo(m), "PU L#1 P#4") {
		t.Fatal("lstopo output wrong")
	}
	if _, err := MachineByName("bogus"); err == nil {
		t.Fatal("unknown machine should error")
	}
}

func TestFacadeHeatmap(t *testing.T) {
	pic := DefaultPICHalo()
	pic.Steps = 3
	res, err := RunJob(JobConfig{
		Machine: topology.Frontier,
		Nodes:   2,
		App:     pic,
		Srun:    SrunOptions{NTasks: 16, CoresPerTask: 7},
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hm := HeatmapFromJob(res)
	if hm.BandFraction(1) < 0.5 {
		t.Fatalf("band fraction = %v", hm.BandFraction(1))
	}
}

func TestFacadeWelchTTest(t *testing.T) {
	r, err := WelchTTest([]float64{1, 2, 3, 4, 5}, []float64{2, 3, 4, 5, 6})
	if err != nil || r.P <= 0 || r.P >= 1 {
		t.Fatalf("t-test: %+v, %v", r, err)
	}
}

// TestMonitorSelfLiveHost runs the paper's always-on library mode against
// this process on the real Linux /proc for a few fast ticks.
func TestMonitorSelfLiveHost(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs Linux")
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	mon, err := MonitorSelf(MonitorConfig{Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := mon.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if mon.Samples() < 2 {
		t.Fatalf("samples = %d, want >= 2", mon.Samples())
	}
	snap := mon.Snapshot()
	if len(snap.LWPs) == 0 {
		t.Fatal("no threads observed on live host")
	}
	if snap.PID != os.Getpid() {
		t.Fatalf("pid = %d", snap.PID)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, snap, ReportOptions{Memory: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Hardware Summary:") {
		t.Fatal("live report incomplete")
	}
}

func TestNewMonitorWithRealFS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs Linux")
	}
	mon, err := NewMonitor(MonitorConfig{}, MonitorDeps{FS: NewRealProcFS(), Clock: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Tick(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAggregateJob(t *testing.T) {
	mq := DefaultMiniQMC()
	mq.Steps = 5
	res, err := RunJob(JobConfig{
		Machine: topology.Frontier,
		App:     mq,
		Srun:    SrunOptions{NTasks: 4, CoresPerTask: 7},
		OMP:     OMPEnv{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores},
		Monitor: JobMonitor{Enabled: true},
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for _, rr := range res.Ranks {
		snaps = append(snaps, rr.Snapshot)
	}
	js, err := AggregateJob(snaps, EvalThresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if js.Ranks != 4 {
		t.Fatalf("ranks = %d", js.Ranks)
	}
	var sb strings.Builder
	if err := WriteJobSummary(&sb, js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Job Summary: 4 ranks") {
		t.Fatalf("summary: %s", sb.String())
	}
}

func TestFacadeAdviseOnCleanRun(t *testing.T) {
	mq := DefaultMiniQMC()
	mq.Steps = 5
	srun := SrunOptions{NTasks: 4, CoresPerTask: 7}
	env := OMPEnv{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores}
	res, err := RunJob(JobConfig{
		Machine: topology.Frontier, App: mq, Srun: srun, OMP: env,
		Monitor: JobMonitor{Enabled: true}, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Advise(AdvisorInput{
		Snapshot: res.Ranks[0].Snapshot, Machine: topology.Frontier(),
		Srun: srun, OMP: env,
	}) {
		if a.Srun != nil {
			t.Fatalf("clean run should not get launch advice: %v", a)
		}
	}
}
