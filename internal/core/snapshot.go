package core

import (
	"zerosum/internal/export"
	"zerosum/internal/gpu"
	"zerosum/internal/obs"
	"zerosum/internal/topology"
)

// MinAvgMax accumulates a metric's extremes and mean, the aggregation shown
// in Listing 2's GPU summary.
type MinAvgMax struct {
	N        int
	Min, Max float64
	Sum      float64
}

// Add folds one observation in.
func (a *MinAvgMax) Add(v float64) {
	if a.N == 0 || v < a.Min {
		a.Min = v
	}
	if a.N == 0 || v > a.Max {
		a.Max = v
	}
	a.Sum += v
	a.N++
}

// Avg returns the mean (0 for no observations).
func (a *MinAvgMax) Avg() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// ThreadSummary is one row of the LWP report table.
type ThreadSummary struct {
	TID   int
	Label string // Main / "Main, OpenMP" / OpenMP / ZeroSum / Other
	Kind  ThreadKind
	// STimePct and UTimePct are the average share of wall time the thread
	// spent in system calls / user code over the whole run.
	STimePct float64
	UTimePct float64
	NVCtx    uint64
	VCtx     uint64
	// Affinity is the thread's allowed-CPU list at the end of the run.
	Affinity topology.CPUSet
	// ObservedCPUs is every CPU the thread was seen executing on; more
	// than one entry with a pinned affinity means migrations happened.
	ObservedCPUs topology.CPUSet
	// CPUChanges counts observed processor changes between samples.
	CPUChanges int
	MinFlt     uint64
	MajFlt     uint64
	// Beats counts samples in which the thread made progress (§3.3).
	Beats uint64
	// Stalled is the thread's progress state at the end of the run;
	// StallEvents counts how many times it entered the stalled state.
	Stalled     bool
	StallEvents int
}

// HWTSummary is one row of the hardware report table.
type HWTSummary struct {
	CPU     int
	IdlePct float64
	SysPct  float64
	UserPct float64
}

// GPUMetric is one aggregated metric row.
type GPUMetric struct {
	Name string
	Agg  MinAvgMax
}

// GPUSummary is one device's aggregated metrics.
type GPUSummary struct {
	VisibleIndex int
	TrueIndex    int
	Model        string
	Metrics      []GPUMetric // in gpu.MetricNames order
}

// Snapshot is everything the end-of-run reports need, assembled by
// Monitor.Snapshot.
type Snapshot struct {
	DurationSec float64
	Rank, Size  int
	PID         int
	Hostname    string
	Comm        string
	ProcessAff  topology.CPUSet

	LWPs []ThreadSummary
	HWTs []HWTSummary
	GPUs []GPUSummary

	MemPeakRSSKB uint64
	MemMinFreeKB uint64
	MemTotalKB   uint64

	// Cumulative process I/O at the end of the run (zero when the host
	// does not expose /proc/<pid>/io).
	IOReadBytes    uint64
	IOWriteBytes   uint64
	IOReadSyscalls uint64
	IOWriteSyscall uint64

	DeadlockSuspected bool
	Samples           int
	// LWPReadSkips / LWPParseSkips count per-thread rows dropped during
	// sampling (task vanished mid-read / row was malformed).
	LWPReadSkips  uint64
	LWPParseSkips uint64

	// StalledLWPs is how many threads were stalled when the snapshot was
	// taken (always 0 with Config.StallTicks disabled).
	StalledLWPs int
	// Self is the monitor's own cost accounting (§4.1).
	Self obs.SelfStats
}

// Snapshot assembles the report data from everything observed so far.
func (m *Monitor) Snapshot() Snapshot {
	now := m.deps.Clock()
	if m.done {
		now = m.finished
	}
	dur := now.Sub(m.started).Seconds()
	snap := Snapshot{
		DurationSec:       dur,
		Rank:              m.rank,
		Size:              m.size,
		PID:               m.pid,
		Hostname:          m.host,
		Comm:              m.procComm,
		ProcessAff:        m.procAff.Clone(),
		MemPeakRSSKB:      m.memPeakRSSKB,
		DeadlockSuspected: m.deadlockHint,
		Samples:           m.samples,
		LWPReadSkips:      m.lwpReadSkips,
		LWPParseSkips:     m.lwpParseSkips,
		StalledLWPs:       m.stalledCount,
		Self:              m.SelfStats(),
	}
	if m.memMinFreeKB != ^uint64(0) {
		snap.MemMinFreeKB = m.memMinFreeKB
	}
	snap.MemTotalKB = m.memTotalKB
	if m.ioSeen {
		snap.IOReadBytes = m.lastIO.ReadBytes
		snap.IOWriteBytes = m.lastIO.WriteBytes
		snap.IOReadSyscalls = m.lastIO.SyscR
		snap.IOWriteSyscall = m.lastIO.SyscW
	}

	for _, tid := range m.sortedTIDs() {
		ts := m.threads[tid]
		wall := ts.lastSeen.Sub(ts.firstSeen).Seconds()
		if wall <= 0 {
			wall = dur
		}
		if wall <= 0 {
			wall = 1
		}
		row := ThreadSummary{
			TID:      ts.tid,
			Label:    m.kindLabel(ts),
			Kind:     ts.kind,
			STimePct: float64(ts.lastSTime-ts.firstSTime) / 100 / wall * 100,
			UTimePct: float64(ts.lastUTime-ts.firstUTime) / 100 / wall * 100,
			NVCtx:    ts.nvctx,
			VCtx:     ts.vctx,
			// Cloned: the monitor mutates these sets in place every tick,
			// and a snapshot must stay stable after it is taken.
			Affinity:     ts.affinity.Clone(),
			ObservedCPUs: ts.observedCPUs.Clone(),
			CPUChanges:   ts.cpuChanges,
			MinFlt:       ts.minflt,
			MajFlt:       ts.majflt,
			Beats:        ts.beats,
			Stalled:      ts.stalled,
			StallEvents:  ts.stallEvents,
		}
		snap.LWPs = append(snap.LWPs, row)
	}

	// HWT summary: mean utilization per CPU in the process affinity list.
	for cpu, a := range m.hwtSums {
		if a.n == 0 || !m.procAff.Empty() && !m.procAff.Contains(cpu) {
			continue
		}
		snap.HWTs = append(snap.HWTs, HWTSummary{
			CPU:     cpu,
			IdlePct: a.idle / float64(a.n),
			SysPct:  a.sys / float64(a.n),
			UserPct: a.user / float64(a.n),
		})
	}

	for i, aggs := range m.gpuAgg {
		gs := GPUSummary{VisibleIndex: i}
		if i < len(m.gpuInfo) {
			gs.TrueIndex = m.gpuInfo[i].TrueIndex
			gs.Model = m.gpuInfo[i].Model
		}
		for _, name := range gpu.MetricNames {
			if agg := aggs[name]; agg != nil {
				gs.Metrics = append(gs.Metrics, GPUMetric{Name: name, Agg: *agg})
			}
		}
		snap.GPUs = append(snap.GPUs, gs)
	}
	return snap
}

// hwtSum accumulates one CPU's samples for its HWT row, in sample order, so
// the means match a replay of the CPU's published samples bit for bit.
type hwtSum struct {
	idle, sys, user float64
	n               int
}

func (a *hwtSum) add(s *export.HWTSample) {
	a.idle += s.IdlePct
	a.sys += s.SysPct
	a.user += s.UserPct
	a.n++
}
