package core

import (
	"strings"
	"testing"

	"zerosum/internal/topology"
)

func baseSnap() Snapshot {
	return Snapshot{
		DurationSec: 60,
		Rank:        0, Size: 8, PID: 1000,
		Hostname:   "node",
		ProcessAff: topology.RangeCPUSet(1, 7),
		MemTotalKB: 16 << 20, MemMinFreeKB: 8 << 20,
	}
}

func kinds(ws []Warning) map[WarningKind]int {
	out := map[WarningKind]int{}
	for _, w := range ws {
		out[w.Kind]++
	}
	return out
}

func TestEvaluateCleanRun(t *testing.T) {
	snap := baseSnap()
	for i := 1; i <= 7; i++ {
		snap.LWPs = append(snap.LWPs, ThreadSummary{
			TID: 1000 + i, Label: "OpenMP", Kind: KindOpenMP,
			UTimePct: 95, STimePct: 1,
			Affinity:     topology.NewCPUSet(i),
			ObservedCPUs: topology.NewCPUSet(i),
		})
		snap.HWTs = append(snap.HWTs, HWTSummary{CPU: i, IdlePct: 3, UserPct: 95, SysPct: 2})
	}
	ws := Evaluate(snap, EvalThresholds{})
	if len(ws) != 0 {
		t.Fatalf("clean run produced warnings: %v", ws)
	}
}

func TestEvaluateSingleCorePileup(t *testing.T) {
	// The Table 1 disaster: seven busy threads all pinned to CPU 1.
	snap := baseSnap()
	for i := 0; i < 7; i++ {
		snap.LWPs = append(snap.LWPs, ThreadSummary{
			TID: 2000 + i, Kind: KindOpenMP, UTimePct: 13, STimePct: 13,
			Affinity: topology.NewCPUSet(1), ObservedCPUs: topology.NewCPUSet(1),
			NVCtx: 330000,
		})
	}
	ws := Evaluate(snap, EvalThresholds{})
	k := kinds(ws)
	if k[WarnSingleCore] != 1 {
		t.Fatalf("want single-core warning, got %v", ws)
	}
	if k[WarnOversubscribed] != 7 {
		t.Fatalf("want 7 oversubscription warnings, got %v", k)
	}
	if k[WarnAffinityOverlap] == 0 {
		t.Fatalf("want affinity overlap, got %v", k)
	}
}

func TestEvaluateMigrationUnderPinning(t *testing.T) {
	snap := baseSnap()
	snap.LWPs = append(snap.LWPs, ThreadSummary{
		TID: 1, Kind: KindOpenMP, UTimePct: 90,
		Affinity:     topology.NewCPUSet(2),
		ObservedCPUs: topology.NewCPUSet(2, 3),
	})
	ws := Evaluate(snap, EvalThresholds{})
	if kinds(ws)[WarnThreadMigration] != 1 {
		t.Fatalf("want migration warning, got %v", ws)
	}
}

func TestEvaluateUnderutilization(t *testing.T) {
	snap := baseSnap()
	snap.LWPs = append(snap.LWPs, ThreadSummary{TID: 1, Kind: KindMain, UTimePct: 90,
		Affinity: topology.NewCPUSet(1), ObservedCPUs: topology.NewCPUSet(1)})
	snap.HWTs = []HWTSummary{
		{CPU: 1, UserPct: 90, IdlePct: 5},
		{CPU: 2, IdlePct: 99.8},
		{CPU: 3, IdlePct: 99.8},
	}
	ws := Evaluate(snap, EvalThresholds{})
	found := false
	for _, w := range ws {
		if w.Kind == WarnUnderutilized && strings.Contains(w.Message, "2 of 3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want '2 of 3' underutilization, got %v", ws)
	}
}

func TestEvaluateIdleGPUAndLowMemory(t *testing.T) {
	snap := baseSnap()
	snap.MemMinFreeKB = 100 << 10 // ~0.6% of 16GB
	var busyAgg MinAvgMax
	busyAgg.Add(1.0)
	snap.GPUs = []GPUSummary{{VisibleIndex: 0, Metrics: []GPUMetric{
		{Name: "Device Busy %", Agg: busyAgg},
	}}}
	ws := Evaluate(snap, EvalThresholds{})
	k := kinds(ws)
	if k[WarnIdleGPU] != 1 || k[WarnLowMemory] != 1 {
		t.Fatalf("want idle-gpu and low-memory, got %v", ws)
	}
}

func TestEvaluateDeadlockHint(t *testing.T) {
	snap := baseSnap()
	snap.DeadlockSuspected = true
	ws := Evaluate(snap, EvalThresholds{})
	if len(ws) == 0 || ws[0].Kind != WarnDeadlockHint {
		t.Fatalf("deadlock hint should lead: %v", ws)
	}
}

func TestEvaluateUnboundThreadsNotOverlap(t *testing.T) {
	// Table 2: threads share the full process cpuset by design; that is
	// "unbound", not an overlap misconfiguration.
	snap := baseSnap()
	for i := 0; i < 3; i++ {
		snap.LWPs = append(snap.LWPs, ThreadSummary{
			TID: 10 + i, Kind: KindOpenMP, UTimePct: 90,
			Affinity:     snap.ProcessAff.Clone(),
			ObservedCPUs: topology.NewCPUSet(1 + i),
		})
	}
	ws := Evaluate(snap, EvalThresholds{})
	if kinds(ws)[WarnAffinityOverlap] != 0 {
		t.Fatalf("unbound threads flagged as overlap: %v", ws)
	}
}

func TestEvaluateZeroSumThreadExempt(t *testing.T) {
	snap := baseSnap()
	snap.LWPs = append(snap.LWPs,
		ThreadSummary{TID: 1, Kind: KindOpenMP, UTimePct: 95, Affinity: topology.NewCPUSet(7), ObservedCPUs: topology.NewCPUSet(7)},
		ThreadSummary{TID: 2, Kind: KindZeroSum, Label: "ZeroSum", UTimePct: 90, Affinity: topology.NewCPUSet(7), ObservedCPUs: topology.NewCPUSet(7)},
	)
	ws := Evaluate(snap, EvalThresholds{})
	if kinds(ws)[WarnAffinityOverlap] != 0 {
		t.Fatalf("monitor thread should not count as contention: %v", ws)
	}
}

func TestWarningString(t *testing.T) {
	w := Warning{WarnSingleCore, "boom"}
	if got := w.String(); !strings.Contains(got, "single-core") || !strings.Contains(got, "boom") {
		t.Fatalf("warning string: %q", got)
	}
	allKinds := []WarningKind{WarnOversubscribed, WarnAffinityOverlap, WarnUnderutilized,
		WarnIdleGPU, WarnLowMemory, WarnThreadMigration, WarnDeadlockHint, WarnSingleCore, WarningKind(99)}
	for _, k := range allKinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestMinAvgMax(t *testing.T) {
	var a MinAvgMax
	if a.Avg() != 0 {
		t.Fatal("empty avg")
	}
	for _, v := range []float64{5, 1, 3} {
		a.Add(v)
	}
	if a.Min != 1 || a.Max != 5 || a.Avg() != 3 || a.N != 3 {
		t.Fatalf("agg = %+v", a)
	}
}
