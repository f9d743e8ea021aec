package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/sim"
	"zerosum/internal/tsdb"
)

// spec is one workload's load shape. README.md says why each exists.
type spec struct {
	name, why string

	// sample runs live monitors over the scheduler simulator instead of
	// replaying the tape.
	sample bool

	leaves      int // 0: agents ship straight to the root
	jobs, ranks int // ranks per job; every job reuses the same identities

	batchSize, ringCap int // agent settings, 0 = aggd defaults

	// Closed loop (tickEvery == 0): the generator hands each agent one batch
	// per visit — exactly one eager flush — and blocks while more than
	// window events are published but not yet visible at the root. Open
	// loop: every rank publishes one whole tick each tickEvery, whatever
	// the pipeline does.
	tickEvery time.Duration

	// readEvery is the shortest interval between two of the reader's queries.
	// wideRange makes its range query span every rank of the job instead
	// of the probe's node: the heavy read a closed loop could not afford
	// without turning into a query benchmark.
	readEvery time.Duration
	wideRange bool
}

// window bounds published-but-invisible events in a closed loop. It sits
// under every default ring and forward buffer, so a healthy run drops
// nothing and any drop is a finding.
const window = 32768

// samplePeriod is sample_node's monitor period on the simulated clock:
// 100x the paper's rate, so one run times tens of thousands of ticks.
const samplePeriod = 10 * sim.Millisecond

var specs = []*spec{
	{
		name:   "sample_node",
		why:    "sampler-bound: live monitors read sim /proc at 100 Hz; proc+core+export set the pace, aggd and tsdb keep up on the other core",
		sample: true, jobs: 1, ranks: tapeRanks, readEvery: 20 * time.Millisecond,
	},
	{
		name: "ingest_flat",
		why:  "aggregator-bound, 512-event batches into a flat root: codec, gunzip, merge and tsdb append dominate",
		jobs: 1, ranks: 64, readEvery: 50 * time.Millisecond,
	},
	{
		name:   "ingest_tree",
		why:    "same layers, 128-event batches through 2 leaves, 16 colliding jobs: envelope, admit, forward and rollup dominate",
		leaves: 2, jobs: 16, ranks: tapeRanks, batchSize: 128, ringCap: 1024,
		readEvery: 25 * time.Millisecond,
	},
	{
		name:   "dash_mixed",
		why:    "open loop at a fixed rate beside a polling dashboard reader: freshness and query latency with every timer live",
		leaves: 1, jobs: 1, ranks: 64, tickEvery: 50 * time.Millisecond,
		readEvery: 20 * time.Millisecond, wideRange: true,
	},
}

// batch is the agents' effective BatchSize.
func (sp *spec) batch() int {
	if sp.batchSize == 0 {
		return 512 // aggd's default
	}
	return sp.batchSize
}

// period is the sample-clock time between two ticks of one rank.
func (sp *spec) period() time.Duration {
	if sp.sample {
		return samplePeriod.Duration()
	}
	return time.Second // the tape's 1 Hz
}

// stores is how many servers append each event to a store: the root, and
// in a tree the leaf it came through.
func (sp *spec) stores() float64 {
	if sp.leaves > 0 {
		return 2
	}
	return 1
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// probe remembers when each tick of one origin's memory sample entered the
// pipeline, so a reader that gets that tick back can say how stale the
// root's view is. It subscribes to the origin's stream like any sink. Every
// rank of the first job carries one, and a freshness sample is their mean:
// behind a shared window the backlog settles in whichever leaf is a hair
// slower, so any single rank's staleness flips between two values from run
// to run while the job's mean stays put.
type probe struct {
	mu    sync.Mutex
	times []int64 // sample-clock nanoseconds, ascending
	wall  []time.Time
	// due, when set, is the scheduled publish time of the tick in flight:
	// an open loop times from when work was due, not when it got out.
	due time.Time
}

func (pr *probe) observe(ev export.Event) {
	if ev.Kind != export.EventMem {
		return
	}
	at := pr.due
	if at.IsZero() {
		at = time.Now()
	}
	pr.mu.Lock()
	pr.times = append(pr.times, tsdb.TimeToNanos(ev.TimeSec))
	pr.wall = append(pr.wall, at)
	pr.mu.Unlock()
}

// published returns when the tick stamped t entered the pipeline.
func (pr *probe) published(t int64) (time.Time, bool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	i := sort.Search(len(pr.times), func(i int) bool { return pr.times[i] >= t })
	if i == len(pr.times) || pr.times[i] != t {
		return time.Time{}, false
	}
	return pr.wall[i], true
}

// counters is every cumulative count the benchmark reads from outside the
// program, taken at one instant; a phase is the difference of two.
type counters struct {
	at         time.Time
	cpu        time.Duration
	visible    uint64
	hop1, hop2 int64
	conns      int64
	agent      aggd.AgentStats
	fwd        aggd.FwdStats
	root       aggd.ServerStats
	front      aggd.ServerStats // errors, recoveries and duplicates at the servers agents talk to: leaves, or the root
	mem        runtime.MemStats
	gcCPU      float64 // seconds of CPU the collector has used

	// obs stages read from outside: ingest requests at every server and at
	// the front servers alone, and agent shipments (traced runs only).
	ingestN, frontN, shipN    uint64
	ingestNS, frontNS, shipNS int64
}

func (p *pipeline) counters() counters {
	c := counters{at: time.Now(), cpu: processCPU(), conns: p.connsAccepted(),
		agent: p.agentStats(), fwd: p.fwdStats(), root: p.root.Stats()}
	c.visible = c.root.IngestEvents
	c.hop1, c.hop2 = p.hopBytes()
	c.ingestN, c.ingestNS = p.root.Obs().Count(obs.StageIngest), p.root.Obs().TotalNS(obs.StageIngest)
	c.front, c.frontN, c.frontNS = c.root, c.ingestN, c.ingestNS
	if len(p.leaves) > 0 {
		c.front, c.frontN, c.frontNS = aggd.ServerStats{}, 0, 0
		for _, l := range p.leaves {
			st := l.Stats()
			c.front.IngestErrors += st.IngestErrors
			c.front.RecoveredBatches += st.RecoveredBatches
			c.front.DupBatches += st.DupBatches
			c.frontN += l.Obs().Count(obs.StageIngest)
			c.frontNS += l.Obs().TotalNS(obs.StageIngest)
		}
		c.ingestN, c.ingestNS = c.ingestN+c.frontN, c.ingestNS+c.frontNS
	}
	c.shipN, c.shipNS = p.agentObs.Count(obs.StageExport), p.agentObs.TotalNS(obs.StageExport)
	runtime.ReadMemStats(&c.mem)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c.gcCPU = gc[0].Value.Float64()
	return c
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pools held on to through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMiB is by how much the live heap grew from one reading to the next, 0
// if it shrank.
func heapMiB(from, to uint64) float64 { return float64(to-min(from, to)) / (1 << 20) }

// tapeEnv is a started, warmed-up pipeline with one replay cursor per
// origin: everything a tape workload's measured phase needs.
type tapeEnv struct {
	sp        *spec
	tp        *tape
	p         *pipeline
	cursors   []cursor
	order     []int // seeded visiting order over p.streams
	published uint64
	heap0     uint64
}

// warmUp is how many hand-offs each origin gets before the clock starts:
// series resolution, connections and pools are set-up, not steady state.
const warmUp = 2

func setupTape(sp *spec, seed uint64, steps int, traced bool) (*tapeEnv, error) {
	tp, err := buildTape(seed, steps)
	if err != nil {
		return nil, err
	}
	e := &tapeEnv{sp: sp, tp: tp, heap0: liveHeap()}
	if e.p, err = startPipeline(sp, tp.node, traced); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	for i := range e.p.streams {
		e.cursors = append(e.cursors, cursor{tr: &tp.ranks[e.p.origins[i].rank%tapeRanks], ticks: tp.ticks})
		e.order = append(e.order, i)
	}
	for i := len(e.order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		e.order[i], e.order[j] = e.order[j], e.order[i]
	}

	// Whole batches, so the agents' eager flush ships them now instead of
	// the 500 ms timer later.
	for _, i := range e.order {
		e.cursors[i].publish(e.p.streams[i], warmUp*sp.batch())
		e.published += uint64(warmUp * sp.batch())
	}
	if !e.p.waitVisible(e.published) {
		e.p.stop()
		return nil, fmt.Errorf("%s: warm-up: root saw %d of %d events", sp.name, e.p.visible(), e.published)
	}
	return e, nil
}

// sliceEvery cuts the measured phase into slices, each rated on its own.
const sliceEvery = 500 * time.Millisecond

// slice is the pipeline's progress at one instant of the measured phase.
type slice struct {
	at      time.Time
	cpu     time.Duration
	visible uint64
}

// phaseStats is what the generator itself observed during the measured
// phase.
type phaseStats struct {
	handOffs   samples // µs per hand-off
	late       samples // ms behind schedule, open loop
	windowWait time.Duration
	pendingMax uint64 // most events seen buffered in forwarders
	slices     []slice
}

// mark opens the next slice once the current one is sliceEvery old. The
// generator calls it between hand-offs; it costs one clock comparison.
func (ps *phaseStats) mark(now time.Time, p *pipeline) {
	if n := len(ps.slices); n > 0 && now.Sub(ps.slices[n-1].at) < sliceEvery {
		return
	}
	ps.slices = append(ps.slices, slice{at: now, cpu: processCPU(), visible: p.visible()})
}

// finish closes the last slice when the generator stops. A tail shorter than
// half a slice is dropped — unless it is all there is.
func (ps *phaseStats) finish(now time.Time, p *pipeline) {
	if n := len(ps.slices); n == 1 || (n > 1 && now.Sub(ps.slices[n-1].at) >= sliceEvery/2) {
		ps.slices = append(ps.slices, slice{at: now, cpu: processCPU(), visible: p.visible()})
	}
}

// rates returns each slice's events per second and CPU µs per event.
func (ps *phaseStats) rates() (perSec, cpuUS samples) {
	for i := 1; i < len(ps.slices); i++ {
		a, b := ps.slices[i-1], ps.slices[i]
		if events := float64(b.visible - a.visible); events > 0 {
			perSec.add(events / b.at.Sub(a.at).Seconds())
			cpuUS.add(float64(b.cpu-a.cpu) / 1e3 / events)
		}
	}
	return perSec, cpuUS
}

// closedLoop publishes as fast as the window allows until deadline.
func (e *tapeEnv) closedLoop(deadline time.Time, tr *tracer) *phaseStats {
	ps := &phaseStats{}
	n := e.sp.batch()
	for {
		for _, i := range e.order {
			t0 := time.Now()
			ps.mark(t0, e.p)
			if t0.After(deadline) {
				return ps
			}
			if e.published+uint64(n)-e.p.visible() > window {
				for e.published+uint64(n)-e.p.visible() > window {
					time.Sleep(100 * time.Microsecond)
				}
				t1 := time.Now()
				ps.windowWait += t1.Sub(t0)
				tr.add("window_wait", t0, t1)
				if pending := e.p.fwdStats().PendingEvents; pending > ps.pendingMax {
					ps.pendingMax = pending
				}
				t0 = t1
			}
			e.cursors[i].publish(e.p.streams[i], n)
			t1 := time.Now()
			e.published += uint64(n)
			ps.handOffs.add(float64(t1.Sub(t0)) / 1e3)
			tr.add("publish_tick", t0, t1)
		}
	}
}

// openLoop publishes one whole tick per origin every tickEvery, origins
// staggered evenly across the interval, until deadline.
func (e *tapeEnv) openLoop(start, deadline time.Time, tr *tracer) *phaseStats {
	ps := &phaseStats{}
	stagger := e.sp.tickEvery / time.Duration(len(e.order))
	for round := 0; ; round++ {
		for k, i := range e.order {
			due := start.Add(time.Duration(round)*e.sp.tickEvery + time.Duration(k)*stagger)
			if due.After(deadline) {
				return ps
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			ps.mark(t0, e.p)
			ps.late.add(float64(t0.Sub(due)) / 1e6)
			if i < len(e.p.probes) {
				e.p.probes[i].due = due
			}
			n := e.cursors[i].tickLen()
			e.cursors[i].publish(e.p.streams[i], n)
			t1 := time.Now()
			e.published += uint64(n)
			ps.handOffs.add(float64(t1.Sub(t0)) / 1e3)
			tr.add("publish_tick", t0, t1)
		}
		if pending := e.p.fwdStats().PendingEvents; pending > ps.pendingMax {
			ps.pendingMax = pending
		}
	}
}

// headroom measures the generator alone: the same cursors into streams
// nobody listens to. The pipeline's numbers only mean something if this is
// several times faster than the pipeline.
func (e *tapeEnv) headroom() float64 {
	idle := &export.Stream{}
	cursors := append([]cursor(nil), e.cursors...)
	n, events := e.sp.batch(), 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for i := range cursors {
			cursors[i].publish(idle, n)
			events += n
		}
	}
	return float64(events) / time.Since(t0).Seconds()
}

// runTape measures one tape workload for the given time.
func runTape(sp *spec, seed uint64, seconds float64, o runOpts) (*result, error) {
	res := newResult(sp.name, o.traced)
	var setups samples
	var e *tapeEnv
	yard := startYardstick()
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.p.stop()
			e = nil // or the next set-up's heap baseline would hold this one's stores
		}
		t0 := time.Now()
		var err error
		if e, err = setupTape(sp, seed, o.tapeSteps, o.traced); err != nil {
			yard.stop()
			return nil, err
		}
		setups.add(time.Since(t0).Seconds())
	}
	defer e.p.stop()
	res.inputSHA = e.tp.sha
	res.set("setup_s", setups.pct(0.5))
	res.set("host.setup_speed_x", yard.stop())

	tr := newTracer(o.traced)
	rd := newReader(e.p, sp, tr)
	before := e.p.counters()
	stopReader := rd.start()
	deadline := before.at.Add(time.Duration(seconds * float64(time.Second)))
	var ps *phaseStats
	yard = startYardstick()
	if sp.tickEvery > 0 {
		ps = e.openLoop(before.at, deadline, tr)
		res.paced["events_per_s"] = true // the schedule's rate, whatever the host's speed
	} else {
		ps = e.closedLoop(deadline, tr)
	}
	genDone := time.Now()
	res.set("host.speed_x", yard.stop())
	ps.finish(genDone, e.p)
	closeDur, drainDur, err := e.p.drain(e.published)
	stopReader()
	after := e.p.counters()
	tr.add("close", genDone, genDone.Add(closeDur))
	tr.add("drain", genDone.Add(closeDur), genDone.Add(closeDur+drainDur))
	if err != nil {
		res.fail(1, "closing agents: %v", err)
	}

	report(res, e.p, before, after, ps, rd)
	res.set("aggd.forward.drain_s", drainDur.Seconds())
	head := e.headroom()
	res.set("gen.headroom_x", ratio(head, res.values["events_per_s"]))
	if sp.tickEvery == 0 && head < 3*res.values["events_per_s"] {
		res.void("generator headroom %.1fx < 3x", ratio(head, res.values["events_per_s"]))
	}
	if late := ps.late.pct(0.95); late > lateLimitMS(sp) {
		res.void("open-loop generator ran %.1f ms late at p95 (limit %.0f ms)", late, lateLimitMS(sp))
	}
	checkTapeBooks(res, e)
	res.set("aggd.query.http_overhead_us", httpOverheadUS(e.p))
	e.p.releaseAgents()
	res.set("live_heap_mb", heapMiB(e.heap0, liveHeap())) // what the servers hold
	if o.traced {
		replayLayers(res, e.tp, sp, o.replay)
		derive(res, sp)
		res.spans = tr.spans
	}
	return res, nil
}

// lateLimitMS is how far behind schedule the open-loop generator may run
// before the run is void: one tick interval, beyond which ticks pile up
// behind each other and the run measures the generator. Freshness is timed
// from when a tick was due, so lateness below this is counted, not hidden.
// It is held against the 95th percentile, gen.late_ms_p99 being reported as
// it reads: ticks are not independent, and one 200 ms stall of the host delays
// 64 ranks x 4 rounds of them — the whole last percent of a run.
// (An idle many-core host could demand 5 ms at p99. With reader, servers and
// generator on two cores the Go scheduler alone delays a timer wake-up by up
// to its 10 ms preemption quantum whenever both cores run long goroutines;
// p99 sits around 16 ms here.)
func lateLimitMS(sp *spec) float64 { return float64(sp.tickEvery) / 1e6 }
