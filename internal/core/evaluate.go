package core

import (
	"fmt"
)

// WarningKind classifies configuration-evaluation findings (paper §3.2's
// "easy benefits": detecting LWPs sharing HWTs with measurable contention,
// under- and over-subscription, and resource exhaustion).
type WarningKind int

// Warning kinds.
const (
	WarnOversubscribed WarningKind = iota
	WarnAffinityOverlap
	WarnUnderutilized
	WarnIdleGPU
	WarnLowMemory
	WarnThreadMigration
	WarnDeadlockHint
	WarnSingleCore
)

func (k WarningKind) String() string {
	switch k {
	case WarnOversubscribed:
		return "oversubscription"
	case WarnAffinityOverlap:
		return "affinity-overlap"
	case WarnUnderutilized:
		return "underutilization"
	case WarnIdleGPU:
		return "idle-gpu"
	case WarnLowMemory:
		return "low-memory"
	case WarnThreadMigration:
		return "thread-migration"
	case WarnDeadlockHint:
		return "deadlock-hint"
	case WarnSingleCore:
		return "single-core"
	default:
		return "unknown"
	}
}

// Warning is one configuration-evaluation finding.
type Warning struct {
	Kind    WarningKind
	Message string
}

func (w Warning) String() string { return fmt.Sprintf("[%s] %s", w.Kind, w.Message) }

// EvalThresholds tunes Evaluate. Zero values select defaults.
type EvalThresholds struct {
	// NVCtxPerSec flags a thread as contended above this rate.
	NVCtxPerSec float64
	// BusyPct is the utilization above which a thread counts as busy.
	BusyPct float64
	// IdleHWTPct flags an allocated hardware thread as wasted above this
	// idle percentage.
	IdleHWTPct float64
	// GPUBusyPct flags a device as idle below this average busy.
	GPUBusyPct float64
	// MemFreeFrac flags low system memory below this free fraction.
	MemFreeFrac float64
}

func (e EvalThresholds) withDefaults() EvalThresholds {
	if e.NVCtxPerSec == 0 {
		e.NVCtxPerSec = 100
	}
	if e.BusyPct == 0 {
		e.BusyPct = 25
	}
	if e.IdleHWTPct == 0 {
		e.IdleHWTPct = 90
	}
	if e.GPUBusyPct == 0 {
		e.GPUBusyPct = 5
	}
	if e.MemFreeFrac == 0 {
		e.MemFreeFrac = 0.05
	}
	return e
}

// Evaluate runs the configuration checks against a snapshot and returns the
// findings, most severe first. This is the §3.2 capability the prototype
// paper leaves as future work, implemented over the data ZeroSum already
// collects.
func Evaluate(snap Snapshot, th EvalThresholds) []Warning {
	th = th.withDefaults()
	var out []Warning
	dur := snap.DurationSec
	if dur <= 0 {
		dur = 1
	}

	// Deadlock hint first: it supersedes everything else.
	if snap.DeadlockSuspected {
		out = append(out, Warning{WarnDeadlockHint,
			"all application threads idle with no CPU progress for several sampling periods; possible deadlock"})
	}

	busy := func(l ThreadSummary) bool { return l.UTimePct+l.STimePct >= th.BusyPct }
	// An oversubscribed thread is NOT "busy" by utilization — starvation
	// is the symptom — so pileup detection uses active (>= 5%) threads
	// and checks the *combined* load on the shared CPU.
	active := func(l ThreadSummary) bool { return l.UTimePct+l.STimePct >= 5 }

	// Single-core pileup: several active threads all confined to one CPU
	// whose combined demand saturates it (the paper's Table 1
	// default-srun disaster).
	type pile struct {
		tids []int
		load float64
	}
	pinned := map[int]*pile{} // cpu -> active single-CPU threads
	for _, l := range snap.LWPs {
		if l.Kind == KindZeroSum {
			continue
		}
		if active(l) && l.Affinity.Count() == 1 {
			c := l.Affinity.First()
			p := pinned[c]
			if p == nil {
				p = &pile{}
				pinned[c] = p
			}
			p.tids = append(p.tids, l.TID)
			p.load += l.UTimePct + l.STimePct
		}
	}
	for c, p := range pinned {
		if len(p.tids) > 1 && p.load >= 70 {
			out = append(out, Warning{WarnSingleCore, fmt.Sprintf(
				"%d active threads are all confined to CPU %d (combined load %.0f%%); request more CPUs per task (-c) or fix thread binding",
				len(p.tids), c, p.load)})
		}
	}

	// Oversubscription: high involuntary context-switch rates on threads
	// doing real work.
	for _, l := range snap.LWPs {
		rate := float64(l.NVCtx) / dur
		if rate >= th.NVCtxPerSec && active(l) {
			out = append(out, Warning{WarnOversubscribed, fmt.Sprintf(
				"LWP %d (%s) suffered %.0f involuntary context switches/sec; it is time-slicing its CPU with other work",
				l.TID, l.Label, rate)})
		}
	}

	// Affinity overlap between busy application threads.
	for i := 0; i < len(snap.LWPs); i++ {
		for j := i + 1; j < len(snap.LWPs); j++ {
			a, b := snap.LWPs[i], snap.LWPs[j]
			if a.Kind == KindZeroSum || b.Kind == KindZeroSum {
				continue
			}
			if !busy(a) || !busy(b) {
				continue
			}
			// Full-cpuset threads are "unbound", not overlapping by intent.
			if a.Affinity.Equal(snap.ProcessAff) || b.Affinity.Equal(snap.ProcessAff) {
				continue
			}
			if a.Affinity.Overlaps(b.Affinity) {
				out = append(out, Warning{WarnAffinityOverlap, fmt.Sprintf(
					"busy LWPs %d and %d share CPUs [%s]; expect involuntary context switches",
					a.TID, b.TID, a.Affinity.And(b.Affinity))})
			}
		}
	}

	// Underutilization: allocated HWTs sitting idle.
	idle := 0
	for _, h := range snap.HWTs {
		if h.IdlePct >= th.IdleHWTPct {
			idle++
		}
	}
	if len(snap.HWTs) > 0 && idle > 0 {
		out = append(out, Warning{WarnUnderutilized, fmt.Sprintf(
			"%d of %d allocated hardware threads were >= %.0f%% idle; the allocation is larger than the work",
			idle, len(snap.HWTs), th.IdleHWTPct)})
	}

	// Thread migrations under explicit pinning defeat the binding.
	for _, l := range snap.LWPs {
		if l.Kind == KindZeroSum {
			continue
		}
		if l.Affinity.Count() == 1 && l.ObservedCPUs.Count() > 1 {
			out = append(out, Warning{WarnThreadMigration, fmt.Sprintf(
				"LWP %d is pinned to CPU %d but was observed on CPUs [%s]",
				l.TID, l.Affinity.First(), l.ObservedCPUs)})
		}
	}

	// Idle GPUs.
	for _, g := range snap.GPUs {
		for _, metric := range g.Metrics {
			if metric.Name == "Device Busy %" && metric.Agg.Avg() < th.GPUBusyPct {
				out = append(out, Warning{WarnIdleGPU, fmt.Sprintf(
					"GPU %d averaged %.1f%% busy; the device is assigned but barely used",
					g.VisibleIndex, metric.Agg.Avg())})
			}
		}
	}

	// Memory headroom.
	if snap.MemTotalKB > 0 {
		frac := float64(snap.MemMinFreeKB) / float64(snap.MemTotalKB)
		if frac < th.MemFreeFrac {
			out = append(out, Warning{WarnLowMemory, fmt.Sprintf(
				"system free memory dropped to %.1f%% of %d MB; out-of-memory risk",
				frac*100, snap.MemTotalKB/1024)})
		}
	}
	return out
}
