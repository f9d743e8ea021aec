package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/gpu"
	"zerosum/internal/obs"
	"zerosum/internal/proc"
	"zerosum/internal/sched"
	"zerosum/internal/sim"
	"zerosum/internal/topology"
	"zerosum/internal/workload"
)

// taskTruth is the simulated kernel's own accounting of one LWP, read
// straight from the scheduler at the instant of a tick.
type taskTruth struct {
	utime, stime   uint64 // jiffies
	vctx, nvctx    uint64
	minflt, majflt uint64
	at             sim.Time
}

func truthOf(t *sched.Task, now sim.Time) taskTruth {
	jiffy := sim.Second / proc.ClockTick
	return taskTruth{
		utime: uint64(t.UTime / jiffy), stime: uint64(t.STime / jiffy),
		vctx: t.VCtx, nvctx: t.NVCtx, minflt: t.MinFlt, majflt: t.MajFlt, at: now,
	}
}

// sampleRank is one rank's live monitor and what the benchmark saw it do.
type sampleRank struct {
	rc          *workload.RankCtx
	mon         *core.Monitor
	stream      *export.Stream
	ticks       int
	first, last map[int]taskTruth // by TID: at the first and latest tick that listed it
}

// sampleJob is one run of the Table 3 job with a live monitor per rank,
// each tick timed on the wall clock from outside Monitor.Tick. It is the
// workload.App: it builds miniQMC and then injects the monitor itself, so
// that the benchmark's clock and the kernel's ground truth sit right around
// the call.
type sampleJob struct {
	app     *workload.MiniQMC
	first   int              // index of rank 0's stream in the pipeline
	streams []*export.Stream // where each rank's monitor publishes
	monObs  *obs.Recorder
	tr      *tracer

	ranks    [tapeRanks]*sampleRank
	p        *pipeline
	base     uint64     // events the root had admitted before this job
	ps       phaseStats // hand-offs are ticks, µs, warm-up ticks excluded
	events   uint64     // published by timed ticks
	lwpRows  uint64     // Σ over all ticks of LWPs the kernel listed
	allTicks uint64
	kinds    [numKinds]uint64 // what the counting sink saw, all ticks
	errs     uint64
	reason   string
	capture  replayer // when set, replay the sampler's layers mid-run into proc
	proc     procCapture
	captured time.Duration // how long that took
	mallocs  samples       // heap allocations across sampled ticks, traced runs only
}

// inFlight is how many events the job's monitors have published that the
// root has not admitted yet. base is what the root had seen before the job.
func (j *sampleJob) inFlight() uint64 {
	var published uint64
	for _, s := range j.streams {
		published += s.Published()
	}
	return published - min(published, j.p.visible()-j.base)
}

func (j *sampleJob) Name() string { return j.app.Name() }

// Build implements workload.App.
func (j *sampleJob) Build(rc *workload.RankCtx) error {
	rk := &sampleRank{rc: rc, stream: j.streams[rc.Rank], first: map[int]taskTruth{}, last: map[int]taskTruth{}}
	rk.stream.Subscribe(func(ev export.Event) { j.kinds[ev.Kind]++ })
	mon, err := core.New(core.Config{
		Period: samplePeriod.Duration(), Stream: rk.stream, Obs: j.monObs,
	}, core.Deps{FS: rc.K.ProcFS(rc.Proc.PID), SMI: rc.SMI, Clock: rc.K.WallClock, Machine: rc.K.Machine})
	if err != nil {
		return err
	}
	rk.mon = mon
	j.ranks[rc.Rank] = rk
	rc.OMP.OnThreadBegin(func(t *sched.Task, _ int) { mon.HintKind(t.TID, core.KindOpenMP) })
	if err := j.app.Build(rc); err != nil {
		return err
	}
	asleep := false
	task := rc.K.NewTask(rc.Proc, "zerosum", sched.BehaviorFunc(func(*sched.Task, sim.Time) sched.Action {
		if rc.AppDone() {
			mon.Finish()
			return nil
		}
		if asleep = !asleep; asleep {
			return sched.Sleep{D: samplePeriod}
		}
		return sched.Call{Fn: func(now sim.Time) { j.tick(rk, now) }}
	}), sched.WithKind(sched.KindZeroSum),
		sched.WithAffinity(topology.NewCPUSet(rc.Proc.Affinity.Last())),
		sched.WithWakePreempt())
	mon.SetSelfTID(task.TID)
	mon.HintKind(task.TID, core.KindZeroSum)
	return nil
}

// tick is the monitor LWP's body: one Monitor.Tick inside a wall-clock span.
func (j *sampleJob) tick(rk *sampleRank, now sim.Time) {
	// The simulation is the generator, and like the tape workloads' it
	// stops while more than a window of events is on its way to the root —
	// or while this rank's own agent still holds half a ring: at 100 Hz a
	// ring is a fraction of a second deep, and one slow shipment must stall
	// the simulated job, not evict samples.
	before := rk.stream.Published()
	held := func() bool { return j.inFlight() > window || j.p.backlog(j.first+rk.rc.Rank) > ringHalf }
	if t0 := time.Now(); held() {
		for held() {
			time.Sleep(100 * time.Microsecond)
		}
		t1 := time.Now()
		j.ps.windowWait += t1.Sub(t0)
		j.tr.add("window_wait", t0, t1)
	}
	// Traced runs count heap allocations across every 32nd tick of rank 0;
	// their set-up job replays that rank's /proc traffic once, mid-run.
	countMallocs := j.tr != nil && rk.rc.Rank == 0 && rk.ticks%32 == 31
	if j.capture > 0 && rk.rc.Rank == 0 && rk.ticks == 64 {
		t0 := time.Now()
		j.proc = captureProc(rk, j.capture)
		j.captured = time.Since(t0)
	}
	var m0, m1 runtime.MemStats
	if countMallocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	err := rk.mon.Tick()
	t1 := time.Now()
	if countMallocs {
		runtime.ReadMemStats(&m1)
		j.mallocs.add(float64(m1.Mallocs - m0.Mallocs))
	}
	if err != nil {
		j.errs++
		j.reason = err.Error()
	}
	j.ps.mark(t1, j.p)
	if rk.ticks++; rk.ticks > warmUp {
		j.ps.handOffs.add(float64(t1.Sub(t0)) / 1e3)
		j.events += rk.stream.Published() - before
		j.tr.add("tick", t0, t1)
	}
	j.allTicks++
	for _, t := range rk.rc.Proc.LiveTasks() {
		j.lwpRows++
		truth := truthOf(t, now)
		if _, seen := rk.first[t.TID]; !seen {
			rk.first[t.TID] = truth
		}
		rk.last[t.TID] = truth
	}
}

// run executes the job for the given number of application steps.
func (j *sampleJob) run(seed uint64, steps int) error {
	j.base = j.p.visible()
	j.app = workload.DefaultMiniQMC()
	j.app.Steps = steps
	cfg := table3Job(seed, steps)
	cfg.App = j
	_, err := workload.Run(cfg)
	return err
}

// check compares what the monitors reported with what the kernel knows:
// per-LWP counters in each rank's snapshot against the scheduler's, and the
// sink's per-kind event counts against ticks × what was there to sample.
func (j *sampleJob) check(res *result) {
	res.attempted += j.allTicks
	res.fail(j.errs, "%d ticks failed, last: %s", j.errs, j.reason)
	var skips uint64
	for _, rk := range j.ranks {
		reads, parses := rk.mon.SampleSkips()
		skips += reads + parses
		snap := rk.mon.Snapshot()
		if len(snap.LWPs) != len(rk.last) {
			res.fail(1, "rank %d: snapshot has %d LWPs, kernel ran %d", rk.rc.Rank, len(snap.LWPs), len(rk.last))
		}
		for _, row := range snap.LWPs {
			first, last := rk.first[row.TID], rk.last[row.TID]
			if row.VCtx != last.vctx || row.NVCtx != last.nvctx || row.MinFlt != last.minflt || row.MajFlt != last.majflt {
				res.fail(1, "rank %d tid %d: snapshot ctx %d/%d faults %d/%d, kernel %d/%d %d/%d", rk.rc.Rank, row.TID,
					row.VCtx, row.NVCtx, row.MinFlt, row.MajFlt, last.vctx, last.nvctx, last.minflt, last.majflt)
			}
			// The snapshot reports CPU time as a share of the thread's
			// observed lifetime; undo that to compare jiffies.
			wall := (last.at - first.at).Seconds()
			if wall <= 0 {
				wall = snap.DurationSec
			}
			if du := row.UTimePct * wall; math.Abs(du-float64(last.utime-first.utime)) > 0.5 {
				res.fail(1, "rank %d tid %d: snapshot utime %.2f jiffies, kernel %d", rk.rc.Rank, row.TID, du, last.utime-first.utime)
			}
			if ds := row.STimePct * wall; math.Abs(ds-float64(last.stime-first.stime)) > 0.5 {
				res.fail(1, "rank %d tid %d: snapshot stime %.2f jiffies, kernel %d", rk.rc.Rank, row.TID, ds, last.stime-first.stime)
			}
		}
	}
	res.fail(skips, "%d sample skips", skips)
	res.set("core.sample_skips", float64(skips))
	want := [numKinds]uint64{
		export.EventLWP: j.lwpRows,
		export.EventGPU: j.allTicks * uint64(len(gpu.MetricNames)),
		export.EventMem: j.allTicks,
		export.EventIO:  j.allTicks,
	}
	for _, k := range []export.EventKind{export.EventLWP, export.EventGPU, export.EventMem, export.EventIO} {
		if j.kinds[k] != want[k] {
			res.fail(1, "sink saw %d events of kind %d, ticks x live set is %d", j.kinds[k], k, want[k])
		}
	}
	// A hardware thread only reports once its jiffy counters moved, which at
	// a 10 ms period is not every tick: bounded, not exact.
	if cpus := uint64(j.ranks[0].rc.K.Machine.NumPUs()); j.kinds[export.EventHWT] == 0 || j.kinds[export.EventHWT] > j.allTicks*cpus {
		res.fail(1, "sink saw %d HWT events over %d ticks of %d CPUs", j.kinds[export.EventHWT], j.allTicks, cpus)
	}
}

// sampleEnv is a started pipeline that one short monitored job has already
// run through: every layer is warm and the job's speed is known.
type sampleEnv struct {
	p        *pipeline
	heap0    uint64
	stepWall time.Duration // wall time per application step, monitors included
	proc     procCapture   // the sampler's layers replayed during the warm-up job, traced runs only
}

// ringHalf is half the agents' default ring.
const ringHalf = 4096

func setupSample(sp *spec, seed uint64, o runOpts) (*sampleEnv, error) {
	e := &sampleEnv{heap0: liveHeap()}
	var err error
	if e.p, err = startPipeline(sp, topology.Frontier().Hostname, o.traced); err != nil {
		return nil, err
	}
	first := e.p.addJob("warm-up", topology.Frontier().Hostname)
	warm := &sampleJob{p: e.p, first: first, streams: e.p.streams[first:]}
	if o.traced {
		warm.capture = o.replay
	}
	t0 := time.Now()
	if err := warm.run(seed, o.warmSteps); err != nil {
		e.p.stop()
		return nil, err
	}
	e.stepWall = (time.Since(t0) - warm.captured) / time.Duration(o.warmSteps)
	e.proc = warm.proc
	if err := e.p.streamers[len(e.p.streamers)-1].Close(); err != nil {
		e.p.stop()
		return nil, err
	}
	if !e.p.waitVisible(e.published()) {
		e.p.stop()
		return nil, fmt.Errorf("%s: warm-up: root saw %d of %d events", sp.name, e.p.visible(), e.published())
	}
	return e, nil
}

// published is how many events every stream of the pipeline has carried.
func (e *sampleEnv) published() (n uint64) {
	for _, s := range e.p.streams {
		n += s.Published()
	}
	return n
}

// runSample measures sample_node: one monitored job sized to last the given
// time, shipping to a flat root that the reader polls.
func runSample(sp *spec, seed uint64, seconds float64, o runOpts) (*result, error) {
	res := newResult(sp.name, o.traced)
	var setups samples
	var e *sampleEnv
	yard := startYardstick()
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.p.stop()
			e = nil // or the next set-up's heap baseline would hold this one's stores
		}
		t0 := time.Now()
		var err error
		if e, err = setupSample(sp, seed, o); err != nil {
			yard.stop()
			return nil, err
		}
		setups.add(time.Since(t0).Seconds())
	}
	defer e.p.stop()
	res.set("setup_s", setups.pct(0.5))
	res.set("host.setup_speed_x", yard.stop())
	steps := max(o.warmSteps, int(seconds/e.stepWall.Seconds()))
	// The simulator is the input, and it is a function of the seed; how many
	// steps of it fit into the run is the host's doing, like how often a tape
	// workload gets around its tape.
	res.inputSHA = fmt.Sprintf("table3+gpu seed=%d period=%v", seed, samplePeriod)

	tr := newTracer(o.traced)
	job := &sampleJob{p: e.p, streams: e.p.streams[:tapeRanks], tr: tr}
	if o.traced {
		job.monObs = obs.NewRecorder(0)
	}
	rd := newReader(e.p, sp, tr)
	before := e.p.counters()
	stopReader := rd.start()
	yard = startYardstick()
	err := job.run(seed, steps)
	genDone := time.Now()
	res.set("host.speed_x", yard.stop())
	job.ps.finish(genDone, e.p)
	closeDur, drainDur, cerr := e.p.drain(e.published())
	stopReader()
	after := e.p.counters()
	if err != nil {
		return nil, err
	}
	tr.add("close", genDone, genDone.Add(closeDur))
	tr.add("drain", genDone.Add(closeDur), genDone.Add(closeDur+drainDur))
	if cerr != nil {
		res.fail(1, "closing agents: %v", cerr)
	}

	report(res, e.p, before, after, &job.ps, rd)
	// The sampler's rate is events over time spent sampling: the rest of the
	// wall clock is the simulated application, not the monitor.
	res.set("events_per_s", ratio(float64(job.events), job.ps.handOffs.sum()/1e6))
	res.set("core.events_per_tick", ratio(float64(job.events), float64(len(job.ps.handOffs))))
	res.set("core.tick_ns_per_lwp", ratio(job.ps.handOffs.sum()*1e3, float64(job.lwpRows)))
	job.check(res)
	checkBooks(res, e.p)
	res.set("aggd.query.http_overhead_us", httpOverheadUS(e.p))
	job.ranks, job.streams = [tapeRanks]*sampleRank{}, nil // the simulated node is the load, not the servers' heap
	e.p.releaseAgents()
	res.set("live_heap_mb", heapMiB(e.heap0, liveHeap())) // what the servers hold
	if o.traced {
		// The shipping half of the path is replayed on the tape: same job,
		// 1 Hz, but the codec and store costs per event are the same code.
		tp, err := buildTape(seed, o.tapeSteps)
		if err != nil {
			return nil, err
		}
		replayLayers(res, tp, sp, o.replay)
		replaySampler(res, job, e.proc)
		derive(res, sp)
		res.spans = tr.spans
	}
	return res, nil
}
