// Package core implements the ZeroSum monitor: the paper's primary
// contribution. A Monitor periodically samples a process's lightweight
// processes (threads) through the /proc filesystem interface, the hardware
// threads of its cpuset through /proc/stat, system and process memory
// through /proc/meminfo and /proc/<pid>/status, and GPU devices through an
// SMI — then produces the utilization report (paper §3.4, Listing 2), the
// contention report (§3.5), heartbeats (§3.3), configuration evaluation
// (§3.2) and the sample stream the CSV logs are written from (§3.6).
//
// The monitor is substrate-agnostic: it consumes proc.FS and gpu.SMI
// interfaces, so exactly the same code observes the kernel simulator and
// the live /proc of a real Linux host.
package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"zerosum/internal/export"
	"zerosum/internal/gpu"
	"zerosum/internal/obs"
	"zerosum/internal/proc"
	"zerosum/internal/topology"
)

// ThreadKind classifies an LWP in reports.
type ThreadKind int

// Thread kinds, in report precedence order.
const (
	KindOther ThreadKind = iota
	KindOpenMP
	KindZeroSum
	KindMain
)

func (k ThreadKind) String() string {
	switch k {
	case KindMain:
		return "Main"
	case KindOpenMP:
		return "OpenMP"
	case KindZeroSum:
		return "ZeroSum"
	default:
		return "Other"
	}
}

// Config tunes the monitor.
type Config struct {
	// Period is the sampling interval (the paper's default: 1 s).
	Period time.Duration
	// HeartbeatEvery emits a progress line every N samples (0 disables).
	HeartbeatEvery int
	// Heartbeat is where heartbeats go (nil disables).
	Heartbeat io.Writer
	// DeadlockSamples is how many consecutive all-idle samples trigger a
	// possible-deadlock hint (0 disables).
	DeadlockSamples int
	// Stream, when non-nil, receives every sample as it is taken. It is the
	// only way samples leave the monitor, which keeps none of them; an
	// export.CSVSink on it writes the §3.6 CSV logs.
	Stream *export.Stream
	// RebindAfter, with a Rebinder in Deps, spreads piled-up busy threads
	// across the cpuset after this many consecutive pileup samples
	// (0 disables). The paper's "automatically (re)assign threads to HWT
	// based on detection of bad configurations" future work.
	RebindAfter int
	// StallTicks marks an LWP Stalled after this many consecutive samples
	// with no progress — no utime/stime jiffy and no context-switch delta
	// (0 disables). The paper's §3.3 heartbeat/progress detection.
	StallTicks int
	// Obs, when non-nil, records tick/scan/sample spans and stage stats:
	// the monitor's own tracing, served at /debug/obs.
	Obs *obs.Recorder
	// Budget configures the runtime overhead watchdog (§4.1): when the
	// monitor's own cost exceeds Budget.MaxPct of one core, the sampling
	// period doubles instead of violating the paper's guarantee.
	Budget obs.Budget
	// Adaptive enables per-LWP adaptive sampling: quiescent threads are
	// scanned less often, snapping back to the base period on activity
	// (see adaptive.go).
	Adaptive AdaptiveConfig
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = time.Second
	}
	if c.Adaptive.Enabled {
		c.Adaptive = c.Adaptive.withDefaults()
	}
	return c
}

// Deps are the monitor's data sources.
type Deps struct {
	FS    proc.FS
	SMI   gpu.SMI // nil when no GPUs are visible
	Clock func() time.Time
	// Machine, when known, lets the monitor reason about cores vs HWTs
	// (hwloc's role in the paper's tool).
	Machine *topology.Machine
	// Rebinder, with Config.RebindAfter, enables automatic re-affinity.
	Rebinder Rebinder
}

// threadState is the per-LWP tracking record. Everything needed to resample
// the thread lives here — the cached /proc descriptors, the read buffers and
// the parse scratch, whose Comm and Name strings and affinity set are reused
// while the thread's text does not change — so steady-state ticks allocate
// nothing.
type threadState struct {
	tid        int
	comm       string
	kind       ThreadKind
	alsoOpenMP bool // main thread participating in the OpenMP team

	// reader holds the thread's stat+status descriptors open across ticks
	// (nil after a read error; reopened on the next tick the tid is listed).
	reader    proc.TaskReader
	statBuf   []byte          // raw stat text, reused across ticks
	statusBuf []byte          // raw status text, reused across ticks
	stat      proc.TaskStat   // parse scratch, valid after a successful scan
	status    proc.TaskStatus // parse scratch, valid after a successful scan
	fresh     bool            // first successful sample not yet applied

	firstSeen time.Time
	lastSeen  time.Time

	firstUTime, firstSTime uint64 // jiffies at first observation
	lastUTime, lastSTime   uint64
	prevUTime, prevSTime   uint64 // previous sample, for per-interval %

	vctx, nvctx    uint64
	minflt, majflt uint64
	lastUserPct    float64
	lastSysPct     float64
	nswap          uint64
	lastCPU        int
	state          proc.TaskState

	affinity     topology.CPUSet
	observedCPUs topology.CPUSet
	cpuChanges   int // observed migrations between samples
	affChanges   int // affinity list changed while running
	gone         bool

	// Heartbeat/progress detection (§3.3). A beat is a sample in which the
	// thread showed any CPU or scheduling delta; StallTicks beat-less
	// samples in a row mark it stalled until the next beat.
	beats       uint64
	stallStreak int
	stalled     bool
	stallEvents int // times the thread entered the stalled state

	// Adaptive sampling (adaptive.go): smoothed activity, the current
	// power-of-two period multiplier, ticks left to skip before the next
	// scan, and ticks actually skipped since the last applied sample
	// (the interval scale for per-period percentages).
	ewma         float64
	stretch      int
	skipLeft     int
	skippedTicks int
}

// Monitor observes one process.
type Monitor struct {
	cfg  Config
	deps Deps
	bfs  proc.BufFS // buffered view of deps.FS (fd-cached on a real host)

	pid      int
	host     string
	started  time.Time
	finished time.Time
	done     bool

	rank, size int // -1 until MPI is detected
	selfTID    int // the monitor's own LWP, reported as ZeroSum kind

	threads map[int]*threadState
	order   []int // TIDs in discovery order

	prevCPU  map[int]proc.CPUTimes // previous /proc/stat rows
	procAff  topology.CPUSet
	procComm string

	samples       int
	lwpReadSkips  uint64 // task stat/status vanished between listing and read
	lwpParseSkips uint64 // task stat/status present but malformed
	lastIO        proc.TaskIO
	ioSeen        bool
	gpuAgg        []map[string]*MinAvgMax // per device, per metric
	gpuInfo       []gpu.DeviceInfo
	memMinFreeKB  uint64
	memPeakRSSKB  uint64
	memTotalKB    uint64   // the last memory sample's
	hwtSums       []hwtSum // by CPU number: running sums for the report's HWT rows

	idleStreak   int
	deadlockHint bool
	pileupStreak int
	rebound      bool
	rebinds      []RebindEvent

	// Self-observability (§4.1): the effective sampling period (the
	// watchdog doubles it under overhead pressure), watchdog firings,
	// accumulated tick wall time, and the current stalled-LWP count.
	period        time.Duration
	degradations  int
	tickWallNS    int64
	stalledCount  int
	adaptiveSkips uint64 // per-thread scans elided by adaptive sampling

	// selfStatsPub holds the obs.SelfStats snapshot published at the end of
	// every tick (and by Finish). The monitor itself is single-goroutine and
	// unsynchronized, so concurrent readers — the /debug/obs HTTP handler in
	// particular — must read this copy via PublishedSelfStats instead of
	// calling SelfStats into live state. A mutex-guarded copy rather than an
	// atomic.Value: storing a struct in an atomic.Value boxes it, and the
	// publish runs on the zero-allocation Tick path.
	selfStatsMu  sync.Mutex
	selfStatsPub obs.SelfStats //zerosum:guardedby selfStatsMu

	// MPI point-to-point accounting (this rank's row of the heatmap).
	sentBytes map[int]uint64
	recvBytes map[int]uint64

	kindHints map[int]ThreadKind
	ompHints  map[int]bool

	// Steady-state tick scratch: every buffer, parse struct and published
	// sample below is reused across ticks so Tick allocates nothing once the
	// thread set is stable (the paper's <0.5 % overhead contract; gated by
	// TestMonitorTickZeroSteadyStateAlloc).
	tidScratch []int        // Tasks listing
	seen       map[int]bool // tids listed this tick, clear()ed per tick

	statBuf    []byte // raw /proc/stat
	memBuf     []byte // raw /proc/meminfo
	pstatusBuf []byte // raw /proc/<pid>/status
	ioBuf      []byte // raw /proc/<pid>/io

	statScratch    proc.Stat
	memScratch     proc.Meminfo
	pstatusScratch proc.TaskStatus
	ioScratch      proc.TaskIO
	gpuVals        []float64

	// Published sample payloads. Event payload pointers are borrowed:
	// subscribers must copy anything they keep past the Publish call (see
	// export.Event), which lets the monitor reuse these across ticks.
	lwpSample export.LWPSample
	hwtSample export.HWTSample
	gpuSample export.GPUSample
	memSample export.MemSample
	ioSample  export.IOSample
}

// New creates a monitor for the process served by deps.FS. Call Tick
// periodically (or Run in real time), then Finish and Report.
func New(cfg Config, deps Deps) (*Monitor, error) {
	if deps.FS == nil {
		return nil, fmt.Errorf("core: Deps.FS is required")
	}
	if deps.Clock == nil {
		return nil, fmt.Errorf("core: Deps.Clock is required")
	}
	m := &Monitor{
		cfg:          cfg.withDefaults(),
		deps:         deps,
		bfs:          proc.AdaptFS(deps.FS),
		pid:          deps.FS.SelfPID(),
		host:         deps.FS.Hostname(),
		started:      deps.Clock(),
		rank:         -1,
		size:         -1,
		selfTID:      -1,
		threads:      make(map[int]*threadState),
		seen:         make(map[int]bool),
		prevCPU:      make(map[int]proc.CPUTimes),
		sentBytes:    make(map[int]uint64),
		recvBytes:    make(map[int]uint64),
		kindHints:    make(map[int]ThreadKind),
		ompHints:     make(map[int]bool),
		memMinFreeKB: ^uint64(0),
	}
	m.period = m.cfg.Period
	if deps.SMI != nil {
		n := deps.SMI.DeviceCount()
		m.gpuAgg = make([]map[string]*MinAvgMax, n)
		for i := 0; i < n; i++ {
			m.gpuAgg[i] = make(map[string]*MinAvgMax)
			info, err := deps.SMI.Info(i)
			if err != nil {
				return nil, fmt.Errorf("core: query GPU %d: %w", i, err)
			}
			m.gpuInfo = append(m.gpuInfo, info)
		}
	}
	// Detect the process-level configuration once at startup (§3.1).
	if raw, err := deps.FS.ProcessStatus(m.pid); err == nil {
		if st, err := proc.ParseTaskStatus(raw); err == nil {
			m.procAff = st.CpusAllowed
			m.procComm = st.Name
		}
	}
	return m, nil
}

// PID returns the monitored process id.
func (m *Monitor) PID() int { return m.pid }

// Hostname returns the node name recorded at startup.
func (m *Monitor) Hostname() string { return m.host }

// SetMPIInfo records the communicator rank and size once the asynchronous
// thread observes MPI_Initialized (paper §3.1.3).
func (m *Monitor) SetMPIInfo(rank, size int) {
	m.rank, m.size = rank, size
}

// SetSelfTID identifies the monitor's own LWP so reports classify it as the
// ZeroSum thread.
func (m *Monitor) SetSelfTID(tid int) { m.selfTID = tid }

// HintKind classifies a thread from external knowledge (OMPT callbacks, GPU
// runtime registration). OpenMP hints on the main thread set its
// "Main, OpenMP" dual label instead of replacing Main.
func (m *Monitor) HintKind(tid int, kind ThreadKind) {
	if kind == KindOpenMP {
		m.ompHints[tid] = true
		return
	}
	m.kindHints[tid] = kind
}

// RecordP2P is the PMPI wrapper entry point: it accumulates point-to-point
// bytes per peer rank (paper §3.1.3; Figure 5's heatmap row).
func (m *Monitor) RecordP2P(send bool, peer int, bytes uint64) {
	if send {
		m.sentBytes[peer] += bytes
	} else {
		m.recvBytes[peer] += bytes
	}
}

// RecvBytes returns this rank's received-bytes row keyed by source rank.
func (m *Monitor) RecvBytes() map[int]uint64 { return m.recvBytes }

// SentBytes returns this rank's sent-bytes row keyed by destination rank.
func (m *Monitor) SentBytes() map[int]uint64 { return m.sentBytes }

// Samples returns how many sampling ticks have run.
func (m *Monitor) Samples() int { return m.samples }

// SampleSkips reports per-thread rows dropped during sampling: reads counts
// tasks that vanished between listing and read, parses counts rows that were
// present but malformed. Non-zero parses on a real host deserve a look.
func (m *Monitor) SampleSkips() (reads, parses uint64) {
	return m.lwpReadSkips, m.lwpParseSkips
}

// elapsedSec returns seconds since the monitor started.
func (m *Monitor) elapsedSec(now time.Time) float64 {
	return now.Sub(m.started).Seconds()
}

// Tick takes one sample: threads, hardware threads, memory, GPUs. The
// asynchronous ZeroSum thread calls this once per period.
//
//zerosum:hotpath
func (m *Monitor) Tick() error {
	if m.done {
		return fmt.Errorf("core: monitor already finished")
	}
	now := m.deps.Clock()
	t := m.elapsedSec(now)
	m.samples++

	rec := m.cfg.Obs
	phaseStart := now
	if err := m.sampleThreads(now, t); err != nil {
		rec.RecordError(obs.StageScan)
		return err
	}
	if rec != nil {
		pm := m.deps.Clock()
		rec.Record(obs.StageScan, phaseStart, pm.Sub(phaseStart))
		phaseStart = pm
	}
	if err := m.sampleHWTs(t); err != nil {
		rec.RecordError(obs.StageSample)
		return err
	}
	if err := m.sampleMemory(t); err != nil {
		rec.RecordError(obs.StageSample)
		return err
	}
	if err := m.sampleGPUs(t); err != nil {
		rec.RecordError(obs.StageSample)
		return err
	}
	m.sampleIO(t)
	if rec != nil {
		rec.Record(obs.StageSample, phaseStart, m.deps.Clock().Sub(phaseStart))
	}
	m.maybeHeartbeat(t)
	m.checkDeadlock()
	m.maybeRebind(t)

	end := m.deps.Clock()
	m.tickWallNS += end.Sub(now).Nanoseconds()
	rec.Record(obs.StageTick, now, end.Sub(now))
	m.maybeDegrade(t)
	m.publishSelfStats()
	return nil
}

// publishSelfStats refreshes the snapshot served to concurrent readers.
// Once per tick, uncontended (the only other taker is an occasional debug
// scrape) and allocation-free — the zero-alloc Tick gates cover it.
//
//zerosum:coldpath
func (m *Monitor) publishSelfStats() {
	s := m.SelfStats()
	m.selfStatsMu.Lock()
	m.selfStatsPub = s
	m.selfStatsMu.Unlock()
}

// sampleThreads runs the per-LWP phase of a tick: one pass over the listed
// tids, in ascending order, that opens each thread's descriptors when it has
// none, reads and parses its stat+status, and applies and publishes the
// sample; then every thread no longer listed is marked gone.
func (m *Monitor) sampleThreads(now time.Time, t float64) error {
	tids, err := m.bfs.TasksInto(m.pid, m.tidScratch[:0])
	m.tidScratch = tids
	if err != nil {
		return fmt.Errorf("core: list tasks: %w", err)
	}
	clear(m.seen)
	for _, tid := range tids {
		m.seen[tid] = true
		ts := m.threads[tid]
		if ts != nil && ts.skipLeft > 0 {
			// Adaptive sampling: this thread's smoothed activity earned it a
			// stretched period; skip the read+parse entirely this tick. It
			// stays listed (so it is not mistaken for an exited thread) and
			// its cached descriptors stay open.
			ts.skipLeft--
			ts.skippedTicks++
			m.adaptiveSkips++
			continue
		}
		if ts == nil {
			// Not registered in m.threads until its first successful scan:
			// a transient thread that dies before it is ever sampled must
			// not appear in reports.
			ts = &threadState{tid: tid, firstSeen: now, fresh: true}
			ts.kind = m.classify(tid)
		}
		if ts.reader == nil {
			rd, err := m.bfs.OpenTask(m.pid, tid)
			if err != nil {
				m.lwpReadSkips++ // died between listing and open
				continue
			}
			ts.reader = rd
		}
		if m.scanThread(ts) {
			m.applyThread(ts, now, t)
		}
	}
	for tid, ts := range m.threads {
		if !m.seen[tid] && !ts.gone {
			ts.gone = true
			// An exited thread is dead, not stalled; keep its stallEvents
			// history but take it out of the live stalled count — and ship
			// one final not-stalled sample, because downstream gauges keyed
			// by TID (aggd's zerosum_lwp_stalled) only clear on an explicit
			// Stalled=false event and would otherwise pin the dead TID for
			// the rest of the job.
			if ts.stalled {
				ts.stalled = false
				m.stalledCount--
				m.lwpSample = export.LWPSample{
					TimeSec: t, TID: ts.tid, Kind: m.kindLabel(ts),
					State: byte(ts.state),
					VCtx:  ts.vctx, NVCtx: ts.nvctx,
					MinFlt: ts.minflt, MajFlt: ts.majflt, NSwap: ts.nswap,
					CPU: ts.lastCPU,
				}
				m.publish(export.Event{Kind: export.EventLWP, TimeSec: t, LWP: &m.lwpSample})
			}
			ts.closeReader()
		}
	}
	return nil
}

// scanThread reads and parses one thread's stat+status into its own scratch
// and reports whether both succeeded; a failure counts as a skip.
//
//zerosum:hotpath
func (m *Monitor) scanThread(ts *threadState) bool {
	var err error
	if ts.statBuf, err = ts.reader.StatInto(ts.statBuf); err != nil {
		return m.readSkip(ts)
	}
	if err = proc.ParseTaskStatInto(ts.statBuf, &ts.stat); err != nil {
		return m.parseSkip(ts)
	}
	if ts.statusBuf, err = ts.reader.StatusInto(ts.statusBuf); err != nil {
		return m.readSkip(ts)
	}
	if err = proc.ParseTaskStatusInto(ts.statusBuf, &ts.status); err != nil {
		return m.parseSkip(ts)
	}
	return true
}

// readSkip counts a thread that died between listing and read. Its cached
// descriptors are dead (procfs returns ESRCH once the thread exits); drop
// them so a relisted tid reopens fresh ones.
func (m *Monitor) readSkip(ts *threadState) bool {
	m.lwpReadSkips++
	ts.closeReader()
	return false
}

// parseSkip counts a malformed row (e.g. a torn read of an exiting task),
// which loses only this thread's sample.
func (m *Monitor) parseSkip(ts *threadState) bool {
	m.lwpParseSkips++
	if ts.fresh {
		ts.closeReader() // unregistered: the state is dropped entirely
	}
	return false
}

// applyThread folds one scanned thread into the monitor state and publishes
// its sample.
func (m *Monitor) applyThread(ts *threadState, now time.Time, t float64) {
	st, status := &ts.stat, &ts.status
	if ts.fresh {
		ts.fresh = false
		ts.comm = st.Comm
		ts.firstUTime, ts.firstSTime = st.UTime, st.STime
		ts.prevUTime, ts.prevSTime = st.UTime, st.STime
		ts.lastCPU = st.Processor
		m.threads[ts.tid] = ts
		m.order = append(m.order, ts.tid)
	}
	if m.ompHints[ts.tid] {
		if ts.kind == KindMain {
			ts.alsoOpenMP = true
		} else if ts.kind == KindOther {
			ts.kind = KindOpenMP
		}
	}
	// Per-interval utilization percentages, against the effective period
	// (the watchdog may have degraded it from Config.Period) scaled by the
	// ticks that actually elapsed for this thread — adaptive sampling may
	// have skipped some, and the cumulative deltas cover all of them.
	elapsedTicks := 1 + ts.skippedTicks
	ts.skippedTicks = 0
	interval := m.period.Seconds() * float64(elapsedTicks)
	if interval <= 0 {
		interval = 1
	}
	du := float64(st.UTime-ts.prevUTime) / proc.ClockTick
	ds := float64(st.STime-ts.prevSTime) / proc.ClockTick
	userPct := du / interval * 100
	sysPct := ds / interval * 100

	// Heartbeat/progress detection (§3.3): any CPU-time or context-switch
	// delta since the previous sample is a beat. The monitor's own LWP is
	// exempt — at 1 Hz its per-interval cost rounds to zero jiffies and it
	// would flag itself.
	progressed := st.UTime != ts.prevUTime || st.STime != ts.prevSTime ||
		status.VoluntaryCtxt != ts.vctx || status.NonvoluntaryCtx != ts.nvctx
	stallFlipped := false
	if progressed {
		ts.beats++
		ts.stallStreak = 0
		if ts.stalled {
			ts.stalled = false
			m.stalledCount--
			stallFlipped = true
		}
	} else if m.cfg.StallTicks > 0 && ts.kind != KindZeroSum {
		// Counters are cumulative, so a no-delta scan proves the thread made
		// no progress on every skipped tick too: the streak advances in
		// base-tick units and stall detection timing is unchanged by
		// adaptive sampling.
		ts.stallStreak += elapsedTicks
		if ts.stallStreak >= m.cfg.StallTicks && !ts.stalled {
			ts.stalled = true
			ts.stallEvents++
			m.stalledCount++
			stallFlipped = true
		}
	}
	if m.cfg.Adaptive.Enabled {
		jiffies := float64((st.UTime - ts.prevUTime) + (st.STime - ts.prevSTime))
		ctx := float64((status.VoluntaryCtxt - ts.vctx) + (status.NonvoluntaryCtx - ts.nvctx))
		m.updateAdaptive(ts, (jiffies+ctx)/float64(elapsedTicks), progressed || stallFlipped)
	}

	if st.Processor != ts.lastCPU {
		ts.cpuChanges++
	}
	if !status.CpusAllowed.Equal(ts.affinity) && !ts.affinity.Empty() {
		ts.affChanges++
	}
	ts.lastSeen = now
	ts.prevUTime, ts.prevSTime = st.UTime, st.STime
	ts.lastUTime, ts.lastSTime = st.UTime, st.STime
	ts.vctx = status.VoluntaryCtxt
	ts.nvctx = status.NonvoluntaryCtx
	ts.minflt, ts.majflt = st.MinFlt, st.MajFlt
	ts.nswap = st.NSwap
	ts.lastCPU = st.Processor
	ts.state = st.State
	ts.affinity.CopyFrom(status.CpusAllowed)
	ts.lastUserPct, ts.lastSysPct = userPct, sysPct
	ts.observedCPUs.Set(st.Processor)

	m.lwpSample = export.LWPSample{
		TimeSec: t, TID: ts.tid, Kind: m.kindLabel(ts), State: byte(st.State),
		UserPct: userPct, SysPct: sysPct,
		VCtx: status.VoluntaryCtxt, NVCtx: status.NonvoluntaryCtx,
		MinFlt: st.MinFlt, MajFlt: st.MajFlt, NSwap: st.NSwap,
		CPU: st.Processor, Stalled: ts.stalled,
	}
	m.publish(export.Event{Kind: export.EventLWP, TimeSec: t, LWP: &m.lwpSample})
}

func (ts *threadState) closeReader() {
	if ts.reader != nil {
		_ = ts.reader.Close() // read-only descriptors: nothing to flush
		ts.reader = nil
	}
}

func (m *Monitor) sampleHWTs(t float64) error {
	raw, err := m.bfs.StatInto(m.statBuf)
	m.statBuf = raw
	if err != nil {
		return fmt.Errorf("core: read /proc/stat: %w", err)
	}
	if err := proc.ParseStatInto(raw, &m.statScratch); err != nil {
		return fmt.Errorf("core: parse /proc/stat: %w", err)
	}
	for _, row := range m.statScratch.PerCPU {
		prev, ok := m.prevCPU[row.CPU]
		m.prevCPU[row.CPU] = row
		if !ok {
			continue // first sample establishes the baseline
		}
		dTotal := float64(row.Total() - prev.Total())
		if dTotal <= 0 {
			continue
		}
		m.hwtSample = export.HWTSample{
			TimeSec: t,
			CPU:     row.CPU,
			IdlePct: float64(row.Idle-prev.Idle) / dTotal * 100,
			SysPct:  float64(row.System-prev.System) / dTotal * 100,
			UserPct: float64(row.User-prev.User) / dTotal * 100,
		}
		for len(m.hwtSums) <= row.CPU {
			m.hwtSums = append(m.hwtSums, hwtSum{})
		}
		m.hwtSums[row.CPU].add(&m.hwtSample)
		m.publish(export.Event{Kind: export.EventHWT, TimeSec: t, HWT: &m.hwtSample})
	}
	return nil
}

func (m *Monitor) sampleMemory(t float64) error {
	rawMem, err := m.bfs.MeminfoInto(m.memBuf)
	m.memBuf = rawMem
	if err != nil {
		return fmt.Errorf("core: read meminfo: %w", err)
	}
	if err := proc.ParseMeminfoInto(rawMem, &m.memScratch); err != nil {
		return fmt.Errorf("core: parse meminfo: %w", err)
	}
	mi := &m.memScratch
	var rss, hwm uint64
	raw, err := m.bfs.ProcessStatusInto(m.pid, m.pstatusBuf)
	m.pstatusBuf = raw
	if err == nil {
		if err := proc.ParseTaskStatusInto(raw, &m.pstatusScratch); err == nil {
			rss, hwm = m.pstatusScratch.VmRSSKB, m.pstatusScratch.VmHWMKB
			m.procAff.CopyFrom(m.pstatusScratch.CpusAllowed)
		}
	}
	if mi.MemFreeKB < m.memMinFreeKB {
		m.memMinFreeKB = mi.MemFreeKB
	}
	if rss > m.memPeakRSSKB {
		m.memPeakRSSKB = rss
	}
	m.memTotalKB = mi.MemTotalKB
	m.memSample = export.MemSample{
		TimeSec: t, TotalKB: mi.MemTotalKB, FreeKB: mi.MemFreeKB,
		AvailKB: mi.MemAvailableKB, ProcRSSKB: rss, ProcHWMKB: hwm,
	}
	m.publish(export.Event{Kind: export.EventMem, TimeSec: t, Mem: &m.memSample})
	return nil
}

func (m *Monitor) sampleGPUs(t float64) error {
	if m.deps.SMI == nil {
		return nil
	}
	for i := 0; i < m.deps.SMI.DeviceCount(); i++ {
		metrics, err := m.deps.SMI.Sample(i)
		if err != nil {
			return fmt.Errorf("core: sample GPU %d: %w", i, err)
		}
		m.gpuVals = metrics.AppendValues(m.gpuVals[:0])
		for j, name := range gpu.MetricNames {
			agg := m.gpuAgg[i][name]
			if agg == nil {
				agg = &MinAvgMax{}
				m.gpuAgg[i][name] = agg
			}
			agg.Add(m.gpuVals[j])
			m.gpuSample = export.GPUSample{TimeSec: t, GPU: i, Metric: name, Value: m.gpuVals[j]}
			m.publish(export.Event{Kind: export.EventGPU, TimeSec: t, GPU: &m.gpuSample})
		}
	}
	return nil
}

// sampleIO reads /proc/<pid>/io; hosts without the file (permissions,
// non-Linux) are tolerated silently, like the paper's optional collectors.
func (m *Monitor) sampleIO(t float64) {
	raw, err := m.bfs.ProcessIOInto(m.pid, m.ioBuf)
	m.ioBuf = raw
	if err != nil {
		return
	}
	if err := proc.ParseTaskIOInto(raw, &m.ioScratch); err != nil {
		return
	}
	io := &m.ioScratch
	m.lastIO = *io
	m.ioSeen = true
	m.ioSample = export.IOSample{
		TimeSec: t, RChar: io.RChar, WChar: io.WChar,
		SyscR: io.SyscR, SyscW: io.SyscW,
		ReadBytes: io.ReadBytes, WriteBytes: io.WriteBytes,
	}
	m.publish(export.Event{Kind: export.EventIO, TimeSec: t, IO: &m.ioSample})
}

// maybeHeartbeat formats a progress line; rate-limited by HeartbeatEvery,
// so it is off the steady-state sampling path.
//
//zerosum:coldpath
func (m *Monitor) maybeHeartbeat(t float64) {
	if m.cfg.HeartbeatEvery <= 0 || m.cfg.Heartbeat == nil {
		return
	}
	if m.samples%m.cfg.HeartbeatEvery == 0 {
		fmt.Fprintf(m.cfg.Heartbeat, "ZeroSum: heartbeat t=%.1fs samples=%d threads=%d\n",
			t, m.samples, m.liveThreadCount())
	}
}

// checkDeadlock implements the §3.3 future-work idea: if every application
// thread has been sleeping with no CPU progress for several consecutive
// samples, flag a possible deadlock.
func (m *Monitor) checkDeadlock() {
	if m.cfg.DeadlockSamples <= 0 {
		return
	}
	allIdle := true
	active := 0
	for _, ts := range m.threads {
		if ts.gone || ts.kind == KindZeroSum {
			continue
		}
		active++
		progressed := ts.lastUTime != ts.firstUTime || ts.lastSTime != ts.firstSTime
		_ = progressed
		if ts.state == proc.StateRunning {
			allIdle = false
		}
		// Progress in the last interval also clears the streak.
		if ts.lastUTime != ts.prevUTime || ts.lastSTime != ts.prevSTime {
			allIdle = false
		}
	}
	if active == 0 {
		allIdle = false
	}
	if allIdle {
		m.idleStreak++
		if m.idleStreak >= m.cfg.DeadlockSamples {
			m.deadlockHint = true
		}
	} else {
		m.idleStreak = 0
	}
}

// DeadlockSuspected reports whether the deadlock heuristic fired.
func (m *Monitor) DeadlockSuspected() bool { return m.deadlockHint }

// CurrentPeriod returns the sampling period in effect right now; the
// overhead watchdog may have doubled it from Config.Period.
func (m *Monitor) CurrentPeriod() time.Duration { return m.period }

// Degradations counts overhead-watchdog firings; each one doubled the
// sampling period.
func (m *Monitor) Degradations() int { return m.degradations }

// StalledLWPs returns how many live threads are currently stalled.
func (m *Monitor) StalledLWPs() int { return m.stalledCount }

// SelfStats assembles the monitor's own cost accounting (§4.1): CPU time
// consumed by the ZeroSum LWP (when identified via SetSelfTID), the
// accumulated tick wall time, and the overhead percentage against the run
// so far. Under the simulator ticks execute in zero simulated time, so the
// self LWP's jiffies carry the accounting; on a real host whichever of the
// two measures is larger is reported.
//
// SelfStats reads live monitor state (including the threads map a running
// Tick mutates), so like every other Monitor method it must not be called
// concurrently with Tick; concurrent readers use PublishedSelfStats.
func (m *Monitor) SelfStats() obs.SelfStats {
	now := m.deps.Clock()
	if m.done {
		now = m.finished
	}
	var selfCPU float64
	if ts := m.threads[m.selfTID]; ts != nil {
		selfCPU = float64((ts.lastUTime-ts.firstUTime)+(ts.lastSTime-ts.firstSTime)) / proc.ClockTick
	}
	s := obs.SelfStats{
		Samples:       m.samples,
		SelfCPUSec:    selfCPU,
		TickWallSec:   float64(m.tickWallNS) / 1e9,
		ElapsedSec:    m.elapsedSec(now),
		Degradations:  m.degradations,
		PeriodSec:     m.period.Seconds(),
		StalledLWPs:   m.stalledCount,
		AdaptiveSkips: m.adaptiveSkips,
	}
	s.OverheadPct = obs.Overhead(s.SelfCPUSec, s.TickWallSec, s.ElapsedSec)
	if m.cfg.Budget.Enabled {
		s.BudgetPct = m.cfg.Budget.WithDefaults().MaxPct
	}
	return s
}

// PublishedSelfStats returns the SelfStats snapshot published by the most
// recent Tick (or Finish); the zero value before the first tick. Unlike
// SelfStats it is safe to call from any goroutine while the monitor runs,
// which is what the /debug/obs handler needs.
func (m *Monitor) PublishedSelfStats() obs.SelfStats {
	m.selfStatsMu.Lock()
	s := m.selfStatsPub
	m.selfStatsMu.Unlock()
	return s
}

// maybeDegrade runs the overhead-budget watchdog: when the monitor's own
// measured cost exceeds the configured budget, double the sampling period
// rather than violate the paper's <0.5 % contract. Fires rarely by
// construction (Budget.MaxDegrade caps it).
//
//zerosum:coldpath
func (m *Monitor) maybeDegrade(t float64) {
	if !m.cfg.Budget.Enabled {
		return
	}
	stats := m.SelfStats()
	if !m.cfg.Budget.Exceeded(stats) {
		return
	}
	m.period *= 2
	m.degradations++
	if m.cfg.Heartbeat != nil {
		fmt.Fprintf(m.cfg.Heartbeat,
			"ZeroSum: self-overhead %.2f%% over budget %.2f%%; sampling period degraded to %s (t=%.1fs)\n",
			stats.OverheadPct, stats.BudgetPct, m.period, t)
	}
}

func (m *Monitor) liveThreadCount() int {
	n := 0
	for _, ts := range m.threads {
		if !ts.gone {
			n++
		}
	}
	return n
}

func (m *Monitor) classify(tid int) ThreadKind {
	if k, ok := m.kindHints[tid]; ok {
		return k
	}
	if tid == m.pid {
		return KindMain
	}
	if tid == m.selfTID {
		return KindZeroSum
	}
	return KindOther
}

func (m *Monitor) kindLabel(ts *threadState) string {
	if ts.kind == KindMain && ts.alsoOpenMP {
		return "Main, OpenMP"
	}
	return ts.kind.String()
}

//zerosum:hotpath
func (m *Monitor) publish(ev export.Event) {
	if m.cfg.Stream != nil {
		m.cfg.Stream.Publish(ev)
	}
}

// Finish freezes the monitor; further Ticks fail. It releases every cached
// /proc descriptor.
func (m *Monitor) Finish() {
	if !m.done {
		m.done = true
		m.finished = m.deps.Clock()
		for _, ts := range m.threads {
			ts.closeReader()
		}
		m.publishSelfStats()
	}
}

// Duration returns the observed execution time.
func (m *Monitor) Duration() time.Duration {
	end := m.finished
	if !m.done {
		end = m.deps.Clock()
	}
	return end.Sub(m.started)
}

// sortedTIDs returns thread ids in discovery order (stable reports).
func (m *Monitor) sortedTIDs() []int {
	out := append([]int(nil), m.order...)
	sort.Ints(out)
	return out
}
