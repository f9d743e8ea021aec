package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/sim"
	"zerosum/internal/tsdb"
)

// SoakConfig parameterizes one chaos soak run. Every random choice in the
// run — fault schedules, synthetic snapshot contents, jittered backoffs —
// derives from Seed, so a failure replays from the seed alone.
type SoakConfig struct {
	Seed           uint64
	Agents         int // concurrent agent streams (default 8)
	EventsPerAgent int // synthetic events fed to each stream (default 256)
	// Kills is how many times each agent is crash-killed mid-stream and
	// restarted as a new epoch (default 1; -1 disables kills).
	Kills int
	// RingCap overrides the agents' ring size (default 128 — small enough
	// that feed bursts overflow it, exercising drop-oldest backpressure).
	RingCap int
	// RestartServer bounces the aggregator's HTTP front-end mid-run,
	// severing every in-flight request, while the store survives.
	RestartServer bool
	Profile       FaultProfile
	Thresholds    core.EvalThresholds
	Logf          func(format string, args ...any) // optional progress output
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Agents <= 0 {
		c.Agents = 8
	}
	if c.EventsPerAgent <= 0 {
		c.EventsPerAgent = 256
	}
	if c.Kills == 0 {
		c.Kills = 1
	} else if c.Kills < 0 {
		c.Kills = 0
	}
	if c.RingCap <= 0 {
		c.RingCap = 128
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SoakResult reports what a soak run did, for logging and further checks.
type SoakResult struct {
	Agent     aggd.AgentStats // summed over every incarnation of every rank
	Server    aggd.ServerStats
	Transport InjectorStats // summed over the per-agent client injectors
	Listener  InjectorStats
	JobEvents uint64 // events the aggregator merged into the job
}

const soakJob = "chaos-soak"

// RunSoak drives cfg.Agents real aggd agents against a real aggregator over
// loopback HTTP through the fault layer, then audits the pipeline:
//
//   - conservation: every event fed to an agent is accounted as sent,
//     ring-dropped, or send-dropped — across crashes and restarts;
//   - no double-count: the aggregator merged no more events than the
//     agents ever pulled out of their rings, despite retries of bodies the
//     server had already (partially) applied;
//   - at-least-once for acknowledged data: everything an agent counted as
//     sent is in the aggregator's merged total;
//   - convergence: after the network heals, the served job summary and
//     heatmap are byte-identical to the fault-free report.Aggregate ground
//     truth of the same snapshots;
//   - time-series conservation: the embedded TSDB holds exactly the samples
//     the admitted events imply (no loss, no double-append across agent
//     crashes, server restarts, and replayed bodies), a healed-network
//     range query serves every admitted point back out, and the compressed
//     block dump decodes to the same sample census.
//
// The returned error (nil on a clean pass) joins every violated invariant.
//
//zerosum:wallclock the soak paces live goroutines and rebinding sockets on the host clock
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	master := sim.NewRNG(cfg.Seed)

	// Ground truth first: snapshots and comm rows are part of the fault-free
	// world, not of the fault schedule.
	snaps := make([]core.Snapshot, cfg.Agents)
	rows := make([]map[int]uint64, cfg.Agents)
	for r := range snaps {
		rng := master.Fork()
		snaps[r] = synthSnapshot(rng, r, cfg.Agents)
		rows[r] = synthCommRow(rng, r, cfg.Agents)
	}
	want, err := report.Aggregate(snaps, cfg.Thresholds)
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free aggregate: %w", err)
	}

	srv := aggd.NewServer(aggd.ServerConfig{Thresholds: cfg.Thresholds})
	listenerInj := NewInjector(master.Fork(), cfg.Profile)
	front, err := startFrontend(srv.Handler(), listenerInj)
	if err != nil {
		return nil, err
	}
	defer front.stop()

	slots := make([]*slot, cfg.Agents)
	var inners []*http.Transport
	defer func() {
		for _, tr := range inners {
			tr.CloseIdleConnections()
		}
	}()
	for r := range slots {
		slots[r] = &slot{
			rank: r,
			node: fmt.Sprintf("n%02d", r/2),
			ring: cfg.RingCap,
			inj:  NewInjector(master.Fork(), cfg.Profile),
		}
		tr, err := slots[r].start(front.addr)
		if err != nil {
			return nil, err
		}
		inners = append(inners, tr)
	}

	// Feed phase: interleave the ranks' streams, crash-kill and restart
	// agents at staggered points, and bounce the server front-end midway.
	restartAt := cfg.EventsPerAgent / 2
	for i := 0; i < cfg.EventsPerAgent; i++ {
		for _, s := range slots {
			if s.killAt(i, cfg) {
				s.agent.Kill()
				s.retire()
				cfg.Logf("killed rank %d at event %d (epoch %d)", s.rank, i, s.epoch)
				s.epoch++
				tr, err := s.start(front.addr)
				if err != nil {
					return nil, err
				}
				inners = append(inners, tr)
			}
			s.push(synthEvent(s.rank, i))
		}
		if cfg.RestartServer && i == restartAt {
			cfg.Logf("restarting aggregator front-end at event round %d", i)
			if err := front.restart(); err != nil {
				return nil, fmt.Errorf("chaos: aggregator restart: %w", err)
			}
		}
		if i%16 == 15 {
			time.Sleep(200 * time.Microsecond) // let senders run against the faults
		}
	}

	// Storm-settling window: the feed outruns the senders, so give them
	// time to work their backlog through the still-faulty network before
	// the heal — this is where most retries, gaps and replays happen.
	time.Sleep(30 * time.Millisecond)

	// Heal phase: stop injecting, deliver the final state, drain the rings.
	listenerInj.Heal()
	for _, s := range slots {
		s.inj.Heal()
	}
	var errs []error
	for _, s := range slots {
		if err := pushSnapshotRetry(s.agent, snaps[s.rank], rows[s.rank]); err != nil {
			errs = append(errs, fmt.Errorf("rank %d snapshot: %w", s.rank, err))
		}
	}
	res := &SoakResult{Listener: listenerInj.Stats()}
	for _, s := range slots {
		_ = s.agent.Close()
		s.retire()
		addStats(&res.Agent, s.acc)
		addInjStats(&res.Transport, s.inj.Stats())
	}
	res.Server = srv.Stats()
	res.JobEvents = jobEvents(front.addr, soakJob, &errs)

	// Invariants. Fed counts what the harness pushed into live agents; a
	// crash may strand nothing, because Kill folds the ring remainder and
	// the in-flight shipment into SendDrops.
	fed := uint64(cfg.Agents) * uint64(cfg.EventsPerAgent)
	a := res.Agent
	if a.Enqueued != fed {
		errs = append(errs, fmt.Errorf("enqueue accounting: agents enqueued %d of %d fed events", a.Enqueued, fed))
	}
	if a.Enqueued != a.RingDrops+a.SendDrops+a.SentEvents {
		errs = append(errs, fmt.Errorf("conservation: enqueued %d != ring %d + send %d + sent %d",
			a.Enqueued, a.RingDrops, a.SendDrops, a.SentEvents))
	}
	if res.JobEvents > a.Enqueued-a.RingDrops {
		errs = append(errs, fmt.Errorf("double count: server merged %d events, agents only shipped %d",
			res.JobEvents, a.Enqueued-a.RingDrops))
	}
	if a.SentEvents > res.JobEvents {
		errs = append(errs, fmt.Errorf("lost acknowledged data: agents saw %d events acknowledged, server merged %d",
			a.SentEvents, res.JobEvents))
	}
	checkSummary(front.addr, soakJob, want, &errs)
	checkHeatmap(front.addr, soakJob, rows, cfg.Agents, &errs)
	checkTSDB(front.addr, soakJob, srv, res.Server, &errs)

	cfg.Logf("soak seed %d: agents %+v", cfg.Seed, res.Agent)
	cfg.Logf("soak seed %d: server %+v", cfg.Seed, res.Server)
	cfg.Logf("soak seed %d: transport faults %+v listener cuts %d", cfg.Seed, res.Transport, res.Listener.ConnCuts)
	return res, errors.Join(errs...)
}

// slot tracks one rank's agent across incarnations.
type slot struct {
	rank  int
	node  string
	ring  int
	epoch uint64
	inj   *Injector
	agent *aggd.Agent
	acc   aggd.AgentStats // retired incarnations' counters
	feed  export.Subscriber
}

// start spins up the slot's next agent incarnation; the returned inner
// transport must be idle-closed at teardown.
func (s *slot) start(addr string) (*http.Transport, error) {
	inner := &http.Transport{MaxIdleConnsPerHost: 2}
	agent, err := aggd.NewAgent(aggd.AgentConfig{
		URL:  "http://" + addr,
		Job:  soakJob,
		Node: s.node,
		Rank: s.rank,
		// A new epoch per incarnation: sequence numbers restart without
		// colliding with the dead incarnation's.
		Epoch:         s.epoch,
		RingCap:       s.ring,
		BatchSize:     16,
		FlushInterval: time.Millisecond,
		// Few enough retries that a partition window can defeat a batch
		// outright, producing the real sequence gaps (and gap accounting)
		// the server must absorb.
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		// Uncompressed bodies so injected corruption lands on the frame
		// bytes the CRC guards, not on a gzip envelope.
		DisableGzip: true,
		Client: &http.Client{
			Transport: &Transport{Inner: inner, Inj: s.inj},
			Timeout:   time.Second,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: rank %d epoch %d: %w", s.rank, s.epoch, err)
	}
	s.agent = agent
	s.feed = agent.Subscriber()
	return inner, nil
}

func (s *slot) push(ev export.Event) { s.feed(ev) }

// retire folds the (stopped) incarnation's counters into the accumulator.
func (s *slot) retire() { addStats(&s.acc, s.agent.Stats()) }

// killAt reports whether this feed round crash-kills the slot's agent: each
// rank dies cfg.Kills times at points staggered across ranks so the server
// sees overlapping incarnations.
func (s *slot) killAt(i int, cfg SoakConfig) bool {
	for k := 1; k <= cfg.Kills; k++ {
		at := k*cfg.EventsPerAgent/(cfg.Kills+1) - s.rank*3
		if at < 1 {
			at = 1 + s.rank%3
		}
		if i == at {
			return true
		}
	}
	return false
}

func addStats(dst *aggd.AgentStats, s aggd.AgentStats) {
	dst.Enqueued += s.Enqueued
	dst.RingDrops += s.RingDrops
	dst.SendDrops += s.SendDrops
	dst.SentBatches += s.SentBatches
	dst.SentEvents += s.SentEvents
	dst.Retries += s.Retries
	dst.Rehomes += s.Rehomes
}

func addInjStats(dst *InjectorStats, s InjectorStats) {
	dst.Decisions += s.Decisions
	dst.DroppedReqs += s.DroppedReqs
	dst.DroppedResps += s.DroppedResps
	dst.Delays += s.Delays
	dst.Corruptions += s.Corruptions
	dst.PartitionDrops += s.PartitionDrops
	dst.ConnCuts += s.ConnCuts
}

// pushSnapshotRetry delivers a rank's final snapshot over the healed
// network; the retry loop only exists for requests racing the heal.
//
//zerosum:wallclock retries pace a real loopback socket
func pushSnapshotRetry(a *aggd.Agent, snap core.Snapshot, row map[int]uint64) error {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if err = a.PushSnapshot(snap, row); err == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return err
}

// frontend is the aggregator's restartable HTTP front-end: the store (the
// aggd.Server) survives a restart, the listener and every live connection
// do not — the crash model for a supervised collector daemon.
type frontend struct {
	handler http.Handler
	inj     *Injector
	addr    string

	hs        *http.Server
	servedone chan struct{}
}

func startFrontend(h http.Handler, inj *Injector) (*frontend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: frontend listen: %w", err)
	}
	f := &frontend{handler: h, inj: inj, addr: ln.Addr().String()}
	f.serve(ln)
	return f, nil
}

func (f *frontend) serve(ln net.Listener) {
	hs := &http.Server{Handler: f.handler}
	servedone := make(chan struct{})
	go func() {
		_ = hs.Serve(&FlakyListener{Listener: ln, Inj: f.inj})
		close(servedone)
	}()
	f.hs, f.servedone = hs, servedone
}

// restart hard-stops the front-end (in-flight requests die with their
// connections) and rebinds the same address so agents reconnect without
// reconfiguration.
//
//zerosum:wallclock rebinding races the kernel releasing the port
func (f *frontend) restart() error {
	f.stop()
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		if ln, err = net.Listen("tcp", f.addr); err == nil {
			f.serve(ln)
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return err
}

func (f *frontend) stop() {
	_ = f.hs.Close()
	<-f.servedone
}

// synthEvent generates rank r's i-th stream event: a deterministic rotation
// through every event kind so the wire codec and the server's live-view
// merge all stay exercised.
func synthEvent(r, i int) export.Event {
	t := float64(i) / 100
	switch i % 6 {
	case 0:
		return export.Event{Kind: export.EventHeartbeat, TimeSec: t}
	case 1:
		return export.Event{Kind: export.EventHWT, TimeSec: t, HWT: &export.HWTSample{
			TimeSec: t, CPU: r, IdlePct: 20, SysPct: 10, UserPct: 70,
		}}
	case 2:
		return export.Event{Kind: export.EventMem, TimeSec: t, Mem: &export.MemSample{
			TimeSec: t, TotalKB: 64 << 20, FreeKB: uint64(32<<20 - i), ProcRSSKB: uint64(1<<20 + i),
		}}
	case 3:
		return export.Event{Kind: export.EventLWP, TimeSec: t, LWP: &export.LWPSample{
			TimeSec: t, TID: 1000 + r, Kind: "Main", State: 'R',
			UserPct: 80, SysPct: 5, VCtx: uint64(i), NVCtx: uint64(i / 2), CPU: r,
		}}
	case 4:
		return export.Event{Kind: export.EventGPU, TimeSec: t, GPU: &export.GPUSample{
			TimeSec: t, GPU: r % 2, Metric: "Device Busy %", Value: float64(50 + i%50),
		}}
	default:
		return export.Event{Kind: export.EventIO, TimeSec: t, IO: &export.IOSample{
			TimeSec: t, RChar: uint64(i) * 512, WChar: uint64(i) * 256,
		}}
	}
}

// synthSnapshot builds rank r's deterministic end-of-run snapshot — the
// ground truth the aggregator must reproduce byte-for-byte after the run.
func synthSnapshot(rng *sim.RNG, r, size int) core.Snapshot {
	return core.Snapshot{
		DurationSec: 100 + rng.Float64()*10,
		Rank:        r,
		Size:        size,
		PID:         4000 + r,
		Hostname:    fmt.Sprintf("n%02d", r/2),
		Comm:        "chaosapp",
		LWPs: []core.ThreadSummary{{
			TID: 4000 + r, Label: "Main", Kind: core.KindMain,
			STimePct: 5 + rng.Float64(), UTimePct: 85 + rng.Float64()*10,
			NVCtx: uint64(rng.Intn(2000)), VCtx: uint64(rng.Intn(5000)),
			MinFlt: uint64(rng.Intn(10000)),
		}},
		HWTs: []core.HWTSummary{{
			CPU: r, IdlePct: rng.Float64() * 30, SysPct: rng.Float64() * 10, UserPct: 60 + rng.Float64()*30,
		}},
		MemPeakRSSKB: uint64(1<<20 + rng.Intn(1<<20)),
		MemMinFreeKB: uint64(16<<20 + rng.Intn(1<<20)),
		MemTotalKB:   64 << 20,
		IOReadBytes:  uint64(rng.Intn(1 << 30)),
		IOWriteBytes: uint64(rng.Intn(1 << 30)),
		Samples:      100,
	}
}

// synthCommRow builds rank r's received-bytes row of the communication
// matrix (what r received from each peer).
func synthCommRow(rng *sim.RNG, r, size int) map[int]uint64 {
	row := make(map[int]uint64)
	for src := 0; src < size; src++ {
		if src != r {
			row[src] = uint64(1<<16 + rng.Intn(1<<20))
		}
	}
	return row
}

// checkSummary asserts the served job summary is byte-identical to the
// fault-free aggregate (same indented encoding the server writes).
func checkSummary(addr, job string, want *report.JobSummary, errs *[]error) {
	body, err := get(addr, "/api/job/"+job+"/summary")
	if err != nil {
		*errs = append(*errs, fmt.Errorf("summary: %w", err))
		return
	}
	exp, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		*errs = append(*errs, fmt.Errorf("summary encode: %w", err))
		return
	}
	exp = append(exp, '\n')
	if !bytes.Equal(body, exp) {
		*errs = append(*errs, fmt.Errorf("summary diverged from fault-free aggregate:\nserved %s\nwant   %s", body, exp))
	}
}

// checkHeatmap asserts the served matrix equals the pushed comm rows.
func checkHeatmap(addr, job string, rows []map[int]uint64, size int, errs *[]error) {
	body, err := get(addr, "/api/job/"+job+"/heatmap")
	if err != nil {
		*errs = append(*errs, fmt.Errorf("heatmap: %w", err))
		return
	}
	var hm aggd.HeatmapResponse
	if err := json.Unmarshal(body, &hm); err != nil {
		*errs = append(*errs, fmt.Errorf("heatmap decode: %w", err))
		return
	}
	if hm.Ranks != size {
		*errs = append(*errs, fmt.Errorf("heatmap size %d, want %d", hm.Ranks, size))
		return
	}
	for dst := 0; dst < size; dst++ {
		for src := 0; src < size; src++ {
			if got, want := hm.Bytes[dst][src], rows[dst][src]; got != want {
				*errs = append(*errs, fmt.Errorf("heatmap[%d][%d] = %d, want %d", dst, src, got, want))
				return
			}
		}
	}
}

// checkTSDB audits the embedded time-series store after the heal. Each
// admitted event kind appends a fixed number of samples (LWP 5, HWT 3,
// GPU 1, Mem 2, IO 2), and admission is exactly-once by epoch/seq dedup —
// so the store's census must equal the per-kind arithmetic no matter how
// many retries, replays, crashes, or front-end restarts the run survived.
// The same census must then come back out the read path: a raw range query
// over the healed network serves one point per admitted event of its
// metric, and the compressed block dump decodes to the same sample count.
func checkTSDB(addr, job string, srv *aggd.Server, st aggd.ServerStats, errs *[]error) {
	wantSamples := 5*st.EventsLWP + 3*st.EventsHWT + st.EventsGPU + 2*st.EventsMem + 2*st.EventsIO
	js := srv.TSDB().JobStats(job)
	if js.Samples != wantSamples {
		*errs = append(*errs, fmt.Errorf("tsdb conservation: store holds %d samples, admitted events imply %d (lwp %d hwt %d gpu %d mem %d io %d)",
			js.Samples, wantSamples, st.EventsLWP, st.EventsHWT, st.EventsGPU, st.EventsMem, st.EventsIO))
	}
	for _, c := range []struct {
		metric string
		want   uint64
	}{
		{"lwp.nvctx", st.EventsLWP},
		{"mem.free_kb", st.EventsMem},
	} {
		body, err := get(addr, "/api/job/"+job+"/query?metric="+c.metric)
		if err != nil {
			*errs = append(*errs, fmt.Errorf("tsdb query %s: %w", c.metric, err))
			continue
		}
		var qr aggd.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			*errs = append(*errs, fmt.Errorf("tsdb query %s decode: %w", c.metric, err))
			continue
		}
		var got uint64
		for _, sr := range qr.Series {
			got += uint64(len(sr.Points))
		}
		if got != c.want {
			*errs = append(*errs, fmt.Errorf("tsdb query %s: served %d points, admitted %d events", c.metric, got, c.want))
		}
	}
	blob, err := get(addr, "/api/job/"+job+"/tsdb")
	if err != nil {
		*errs = append(*errs, fmt.Errorf("tsdb dump: %w", err))
		return
	}
	bs, err := tsdb.UnmarshalBlocks(blob)
	if err != nil {
		*errs = append(*errs, fmt.Errorf("tsdb dump decode: %w", err))
		return
	}
	var dumped uint64
	for _, sr := range bs.Series {
		for _, ch := range sr.Chunks {
			dumped += uint64(ch.Count)
		}
	}
	if dumped != wantSamples {
		*errs = append(*errs, fmt.Errorf("tsdb dump: blob carries %d samples, admitted events imply %d", dumped, wantSamples))
	}
}

// jobEvents reads the aggregator's merged event count for one job.
func jobEvents(addr, job string, errs *[]error) uint64 {
	body, err := get(addr, "/api/jobs")
	if err != nil {
		*errs = append(*errs, fmt.Errorf("jobs: %w", err))
		return 0
	}
	var jobs []aggd.JobInfo
	if err := json.Unmarshal(body, &jobs); err != nil {
		*errs = append(*errs, fmt.Errorf("jobs decode: %w", err))
		return 0
	}
	for _, j := range jobs {
		if j.Job == job {
			return j.Events
		}
	}
	*errs = append(*errs, fmt.Errorf("jobs: %q missing from /api/jobs", job))
	return 0
}

// cleanClient bypasses the fault layer and keeps no idle connections, so
// post-run API reads cannot trip the FD leak check.
var cleanClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// get fetches one API path over a clean (fault-free) client.
func get(addr, path string) ([]byte, error) {
	resp, err := cleanClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}
