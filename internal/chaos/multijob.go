package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/scenario"
	"zerosum/internal/scenario/fairness"
	"zerosum/internal/sim"
)

// MultiJobSoakConfig parameterizes one multi-job soak: a scenario-generated
// job population streamed concurrently through a leaf tree, with leaf
// crashes mid-run. Where RunSoak mangles packets and RunTreeSoak crashes
// tiers under a single job, this suite's subject is *isolation*: many jobs
// whose (node, rank, TID) tuples deliberately collide share one tree, and
// every per-job book must close independently.
type MultiJobSoakConfig struct {
	Seed uint64
	// Scenario is the fleet to generate and schedule; the zero value uses
	// a built-in 110-job mix sized so a scheduler run admits well over the
	// 100-job acceptance floor.
	Scenario scenario.Config
	// Rounds is how many feed rounds the schedule horizon is mapped onto:
	// each admitted job streams one LWP event per rank per round across its
	// scaled admit→finish window (default 240).
	Rounds int
	// Leaves is the leaf-aggregator count under the root (default 3).
	Leaves int
	// KillLeaves is how many leaves are crash-killed at staggered rounds
	// and revived once their homed streams fail over (default: every leaf;
	// -1 disables).
	KillLeaves int
	// RestartRoot bounces the root front-end midway through the feed.
	RestartRoot bool
	// RingCap overrides the agents' ring size (default 256).
	RingCap    int
	Thresholds core.EvalThresholds
	Logf       func(format string, args ...any)
}

func (c MultiJobSoakConfig) withDefaults() MultiJobSoakConfig {
	if c.Scenario.Jobs == 0 {
		c.Scenario = defaultMultiJobScenario()
	}
	if c.Rounds <= 0 {
		c.Rounds = 240
	}
	if c.Leaves <= 0 {
		c.Leaves = 3
	}
	if c.KillLeaves == 0 {
		c.KillLeaves = c.Leaves
	} else if c.KillLeaves < 0 {
		c.KillLeaves = 0
	}
	if c.KillLeaves > c.Leaves {
		c.KillLeaves = c.Leaves
	}
	if c.RingCap <= 0 {
		c.RingCap = 256
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// defaultMultiJobScenario is the built-in soak fleet: small ranks so the
// live agent population tracks cluster occupancy (tens, not hundreds), a
// preempting three-queue mix so job windows interleave and overlap, and no
// GPUs so every generated job is feasible and the admitted count stays at
// the full population.
func defaultMultiJobScenario() scenario.Config {
	return scenario.Config{
		Name:          "multijob-soak",
		Nodes:         6,
		CPUsPerNode:   4,
		Oversubscribe: 1.25,
		Queues: []scenario.QueueConfig{
			{Name: "prod", Weight: 3},
			{Name: "batch", Weight: 2},
			{Name: "debug", Weight: 1},
		},
		Jobs:              110,
		ArrivalMeanSec:    4,
		DurationMinSec:    20,
		DurationMeanSec:   40,
		MaxRanks:          3,
		MaxThreadsPerRank: 2,
		CPUsPerRank:       1,
		Preempt:           true,
	}
}

// MultiJobSoakResult reports one multi-job soak run, summed per tier.
type MultiJobSoakResult struct {
	Jobs        int    // jobs executed (scheduler-admitted and streamed)
	Fed         uint64 // events fed across every job's agents
	Preemptions int    // scheduler preemptions in the generating run
	Agent       aggd.AgentStats
	Leaf        aggd.ServerStats
	Forward     aggd.FwdStats
	Root        aggd.ServerStats
	JobEvents   uint64 // Σ over jobs of the root's per-job event census
	CSV         []byte // allocation-history CSV of the generating schedule
}

// jobRun is one scheduled job's streaming lifecycle in the soak.
type jobRun struct {
	spec  scenario.JobSpec
	out   *scenario.JobOutcome
	start int // first feed round (inclusive)
	end   int // last feed round (exclusive)

	nodes  []string // per-rank node name, from the schedule's placements
	agents []*aggd.Agent
	feeds  []export.Subscriber
	fed    uint64
	acc    aggd.AgentStats

	snaps []core.Snapshot
	rows  []map[int]uint64
	want  *report.JobSummary
}

// RunMultiJobSoak generates a job population from cfg.Scenario, schedules
// it with the fairness scheduler, then streams every admitted job through
// a real leaf tree concurrently — each job as its own aggd job (per-rank
// agents homed by consistent hash), its admit→finish window scaled onto
// the feed rounds — while leaves crash and revive mid-run. Jobs reuse the
// same node names, rank numbers and TIDs on purpose: any cross-job state
// sharing in the tree shows up as a broken per-job book. The audit closes
// every book per job and per tier:
//
//   - schedule determinism: a second generator+scheduler run at the same
//     seed reproduces the allocation-history CSV byte-for-byte;
//   - per-job agent conservation: each job's fed events are exactly its
//     agents' enqueued, and enqueued == ring-dropped + send-dropped + sent,
//     across leaf failovers;
//   - per-job no-double-count: the root merged no more of a job's events
//     than its agents shipped;
//   - no cross-job bleed: the root's per-job event censuses sum exactly to
//     its global admitted-event counter, each job's summary is
//     byte-identical to the fault-free report.Aggregate of that job's own
//     snapshots, its heatmap serves only its own comm rows, its TSDB holds
//     exactly 5 samples per admitted event (the per-LWP-event append
//     count), and the Prometheus export's per-job series agree;
//   - tier conservation: the same leaf/forwarder/root books RunTreeSoak
//     closes, summed over the whole fleet.
//
// The returned error (nil on a clean pass) joins every violated invariant.
//
//zerosum:wallclock the soak paces live goroutines and rebinding sockets on the host clock
func RunMultiJobSoak(cfg MultiJobSoakConfig) (*MultiJobSoakResult, error) {
	cfg = cfg.withDefaults()
	master := sim.NewRNG(cfg.Seed)

	// The schedule under audit, and its same-seed replay: the CSV is the
	// deterministic contract the fairness tooling goldens against.
	sres, csv, err := multiJobSchedule(cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, csv2, err := multiJobSchedule(cfg.Scenario, cfg.Seed); err != nil {
		return nil, err
	} else if !bytes.Equal(csv, csv2) {
		return nil, fmt.Errorf("chaos: scenario seed %d is not replayable: allocation CSVs differ (%d vs %d bytes)",
			cfg.Seed, len(csv), len(csv2))
	}

	// Job windows and ground truth. Every job's snapshots reuse the same
	// TID arithmetic and the node names its agents stream under, so tuples
	// collide across jobs exactly as ISSUE 10 demands.
	jobs := multiJobRuns(cfg, sres, master)
	if len(jobs) == 0 {
		return nil, errors.New("chaos: scenario admitted no jobs")
	}
	for _, jr := range jobs {
		want, err := report.Aggregate(jr.snaps, cfg.Thresholds)
		if err != nil {
			return nil, fmt.Errorf("chaos: job %s fault-free aggregate: %w", jr.spec.ID, err)
		}
		jr.want = want
	}

	// The tree: one root, cfg.Leaves forwarding leaves, as in RunTreeSoak.
	root := aggd.NewServer(aggd.ServerConfig{Thresholds: cfg.Thresholds})
	rootFront, err := startFrontend(root.Handler(), NewInjector(master.Fork(), FaultProfile{}))
	if err != nil {
		return nil, err
	}
	defer rootFront.stop()

	fwdTransport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer fwdTransport.CloseIdleConnections()
	newLeafSrv := func(id string, epoch uint64) *aggd.Server {
		return aggd.NewServer(aggd.ServerConfig{
			Thresholds: cfg.Thresholds,
			Forward: &aggd.ForwardConfig{
				Upstream:      "http://" + rootFront.addr,
				LeafID:        id,
				Epoch:         epoch,
				FlushInterval: 2 * time.Millisecond,
				MaxRetries:    2,
				BackoffBase:   time.Millisecond,
				MaxBackoff:    8 * time.Millisecond,
				DisableGzip:   true,
				Client:        &http.Client{Transport: fwdTransport, Timeout: time.Second},
			},
		})
	}
	leaves := make([]*leafHost, cfg.Leaves)
	leafURLs := make([]string, cfg.Leaves)
	for i := range leaves {
		lh := &leafHost{id: fmt.Sprintf("leaf-%d", i), epoch: 1}
		lh.srv = newLeafSrv(lh.id, lh.epoch)
		if lh.front, err = startFrontend(lh.srv.Handler(), NewInjector(master.Fork(), FaultProfile{})); err != nil {
			return nil, err
		}
		defer lh.front.stop()
		leaves[i] = lh
		leafURLs[i] = "http://" + lh.front.addr
	}
	router, err := aggd.NewRouter(leafURLs)
	if err != nil {
		return nil, err
	}

	agentTransport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer agentTransport.CloseIdleConnections()
	agentClient := &http.Client{Transport: agentTransport, Timeout: 250 * time.Millisecond}

	// live is the open-agent set, owned by this goroutine. A leaf's revive
	// gate must ignore agents whose jobs already closed: a closed agent's
	// Home can never move again, and its undelivered remainder is already
	// settled as send drops in its job's books.
	live := make(map[*aggd.Agent]bool)
	rehomedOrGone := func(lh *leafHost, deadURL string) bool {
		for _, a := range lh.homed {
			if live[a] && a.Home() == deadURL {
				return false
			}
		}
		return true
	}

	byStart := make([][]*jobRun, cfg.Rounds+1)
	byEnd := make([][]*jobRun, cfg.Rounds+1)
	for _, jr := range jobs {
		byStart[jr.start] = append(byStart[jr.start], jr)
		byEnd[jr.end] = append(byEnd[jr.end], jr)
	}
	res := &MultiJobSoakResult{Jobs: len(jobs), CSV: csv}
	for _, out := range sres.Jobs {
		res.Preemptions += out.Preemptions
	}

	startJob := func(jr *jobRun) error {
		jr.agents = make([]*aggd.Agent, jr.spec.Ranks)
		jr.feeds = make([]export.Subscriber, jr.spec.Ranks)
		for r := 0; r < jr.spec.Ranks; r++ {
			agent, err := aggd.NewAgent(aggd.AgentConfig{
				URLs:          router.Order(jr.nodes[r], r),
				Job:           jr.spec.ID,
				Node:          jr.nodes[r],
				Rank:          r,
				RingCap:       cfg.RingCap,
				BatchSize:     16,
				FlushInterval: time.Millisecond,
				MaxRetries:    2,
				BackoffBase:   time.Millisecond,
				MaxBackoff:    4 * time.Millisecond,
				DisableGzip:   true,
				Client:        agentClient,
			})
			if err != nil {
				return fmt.Errorf("chaos: job %s rank %d: %w", jr.spec.ID, r, err)
			}
			jr.agents[r] = agent
			jr.feeds[r] = agent.Subscriber()
			live[agent] = true
		}
		return nil
	}
	closeJob := func(jr *jobRun) {
		for _, a := range jr.agents {
			_ = a.Close()
			delete(live, a)
			addStats(&jr.acc, a.Stats())
		}
	}

	// Fault schedule, condition-gated exactly as RunTreeSoak's: a kill
	// captures the streams homed at the leaf, the revive waits until every
	// still-live one has observably re-homed, and kills defer while another
	// leaf is down so streams always have a live sibling.
	killRound := make(map[int]int)
	reviveRound := make(map[int]int)
	killedOwned := false
	if cfg.KillLeaves > 0 {
		stagger := cfg.Rounds / (cfg.KillLeaves + 2)
		if stagger < 2 {
			stagger = 2
		}
		gap := cfg.Rounds / 10
		if gap < 4 {
			gap = 4
		}
		for i := 0; i < cfg.KillLeaves; i++ {
			killRound[i] = (i + 1) * stagger
			reviveRound[i] = killRound[i] + gap
		}
	}
	restartRootAt := -1
	if cfg.RestartRoot {
		restartRootAt = cfg.Rounds / 2
	}
	anyDead := func() bool {
		for _, lh := range leaves {
			if lh.dead {
				return true
			}
		}
		return false
	}
	revive := func(lh *leafHost, round int) error {
		lh.epoch++
		lh.srv = newLeafSrv(lh.id, lh.epoch)
		if err := lh.front.restartWith(lh.srv.Handler()); err != nil {
			return fmt.Errorf("chaos: revive %s: %w", lh.id, err)
		}
		lh.dead = false
		lh.homed = nil
		cfg.Logf("revived %s at round %d as epoch %d", lh.id, round, lh.epoch)
		return nil
	}

	active := make(map[*jobRun]bool)
	for i := 0; i < cfg.Rounds; i++ {
		for li, lh := range leaves {
			kill, hasKill := killRound[li]
			rev, hasRevive := reviveRound[li]
			switch {
			case hasKill && kill <= i && !lh.dead && !anyDead():
				delete(killRound, li)
				lh.front.stop()
				lh.srv.Forwarder().Kill()
				lh.past = append(lh.past, lh.srv)
				lh.dead = true
				for a := range live {
					if a.Home() == leafURLs[li] {
						lh.homed = append(lh.homed, a)
					}
				}
				if len(lh.homed) > 0 {
					killedOwned = true
				}
				cfg.Logf("killed %s at round %d (epoch %d, %d homed streams)",
					lh.id, i, lh.epoch, len(lh.homed))
			case hasRevive && rev <= i && lh.dead && rehomedOrGone(lh, leafURLs[li]):
				delete(reviveRound, li)
				if err := revive(lh, i); err != nil {
					return nil, err
				}
			}
		}
		for _, jr := range byEnd[i] {
			closeJob(jr)
			delete(active, jr)
		}
		for _, jr := range byStart[i] {
			if err := startJob(jr); err != nil {
				return nil, err
			}
			active[jr] = true
		}
		for jr := range active {
			for r, feed := range jr.feeds {
				feed(synthLWPEvent(r, i))
			}
			jr.fed += uint64(jr.spec.Ranks)
		}
		if i == restartRootAt {
			cfg.Logf("restarting root front-end at round %d", i)
			if err := rootFront.restart(); err != nil {
				return nil, fmt.Errorf("chaos: root restart: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		if i%8 == 7 {
			time.Sleep(200 * time.Microsecond)
		}
	}

	// Revive any leaf still down — gated on its still-live homed streams
	// leaving, with a deadline turning a wedged failover into a loud error
	// rather than a hang. Jobs that already closed prune themselves out of
	// the gate via the live set.
	deadline := time.Now().Add(10 * time.Second)
	for li, lh := range leaves {
		if !lh.dead {
			continue
		}
		for !rehomedOrGone(lh, leafURLs[li]) && time.Now().Before(deadline) {
			time.Sleep(500 * time.Microsecond)
		}
		if err := revive(lh, cfg.Rounds); err != nil {
			return nil, err
		}
	}
	// Settle, then close the jobs whose windows ran to the horizon.
	time.Sleep(30 * time.Millisecond)
	for _, jr := range byEnd[cfg.Rounds] {
		closeJob(jr)
	}

	// Snapshot delivery happens after the heal, through short-lived courier
	// agents: a leaf crash between acking a snapshot and forwarding it
	// would silently eat it, so the model is an external collector pushing
	// end-of-job documents once the tree is stable. PushSnapshot itself
	// walks the failover ring, so a courier survives a slow leaf too.
	var errs []error
	for _, jr := range jobs {
		for r := 0; r < jr.spec.Ranks; r++ {
			courier, err := aggd.NewAgent(aggd.AgentConfig{
				URLs:          router.Order(jr.nodes[r], r),
				Job:           jr.spec.ID,
				Node:          jr.nodes[r],
				Rank:          r,
				FlushInterval: time.Millisecond,
				DisableGzip:   true,
				Client:        agentClient,
			})
			if err != nil {
				errs = append(errs, fmt.Errorf("job %s courier %d: %w", jr.spec.ID, r, err))
				continue
			}
			if err := pushSnapshotRetry(courier, jr.snaps[r], jr.rows[r]); err != nil {
				errs = append(errs, fmt.Errorf("job %s rank %d snapshot: %w", jr.spec.ID, r, err))
			}
			_ = courier.Close()
		}
	}

	// Closing a leaf flushes its final rollup (tail batches and the
	// snapshot documents) upstream before any book is read.
	for _, lh := range leaves {
		_ = lh.srv.Close()
		for _, srv := range append(lh.past, lh.srv) {
			addServerStats(&res.Leaf, srv.Stats())
			addFwdStats(&res.Forward, srv.Forwarder().Stats())
		}
	}
	res.Root = root.Stats()

	// Per-job books. The root's /api/jobs census is fetched once; every
	// job must appear exactly once, and the censuses must sum to the
	// root's global admitted-event counter — the no-bleed identity.
	census, cerr := rootJobCensus(rootFront.addr)
	if cerr != nil {
		errs = append(errs, cerr)
	}
	promEvents, promSamples, perr := rootPromJobSums(rootFront.addr)
	if perr != nil {
		errs = append(errs, perr)
	}
	for _, jr := range jobs {
		id := jr.spec.ID
		a := jr.acc
		res.Fed += jr.fed
		addStats(&res.Agent, a)
		if a.Enqueued != jr.fed {
			errs = append(errs, fmt.Errorf("job %s enqueue accounting: agents enqueued %d of %d fed events", id, a.Enqueued, jr.fed))
		}
		if a.Enqueued != a.RingDrops+a.SendDrops+a.SentEvents {
			errs = append(errs, fmt.Errorf("job %s conservation: enqueued %d != ring %d + send %d + sent %d",
				id, a.Enqueued, a.RingDrops, a.SendDrops, a.SentEvents))
		}
		got, ok := census[id]
		if !ok {
			errs = append(errs, fmt.Errorf("job %s missing from /api/jobs", id))
			continue
		}
		res.JobEvents += got
		if got > a.Enqueued-a.RingDrops {
			errs = append(errs, fmt.Errorf("job %s double count: root merged %d events, agents only shipped %d",
				id, got, a.Enqueued-a.RingDrops))
		}
		checkSummary(rootFront.addr, id, jr.want, &errs)
		checkHeatmap(rootFront.addr, id, jr.rows, jr.spec.Ranks, &errs)
		// Every admitted event is an LWP sample and appends exactly 5
		// points to the job's series — so the TSDB census per job is pure
		// arithmetic, and any cross-job append shifts two jobs' counts.
		if js := root.TSDB().JobStats(id); js.Samples != 5*got {
			errs = append(errs, fmt.Errorf("job %s tsdb bleed: store holds %d samples, admitted events imply %d", id, js.Samples, 5*got))
		}
		if pe := promEvents[id]; pe != got {
			errs = append(errs, fmt.Errorf("job %s metrics bleed: zerosum_stream_events_total sums to %d, root admitted %d", id, pe, got))
		}
		if ps := promSamples[id]; ps != 5*got {
			errs = append(errs, fmt.Errorf("job %s metrics bleed: zerosum_tsdb_samples_total reports %d, admitted events imply %d", id, ps, 5*got))
		}
	}
	if len(census) != len(jobs) {
		errs = append(errs, fmt.Errorf("root job census: /api/jobs lists %d jobs, scenario ran %d", len(census), len(jobs)))
	}
	if res.JobEvents != res.Root.IngestEvents {
		errs = append(errs, fmt.Errorf("cross-job bleed: per-job censuses sum to %d events, root admitted %d",
			res.JobEvents, res.Root.IngestEvents))
	}

	// Tier books over the whole fleet, as in the single-job tree soak.
	a, lf, fw, rt := res.Agent, res.Leaf, res.Forward, res.Root
	if a.Enqueued != res.Fed {
		errs = append(errs, fmt.Errorf("fleet enqueue accounting: agents enqueued %d of %d fed events", a.Enqueued, res.Fed))
	}
	if lf.IngestEvents > a.Enqueued-a.RingDrops {
		errs = append(errs, fmt.Errorf("leaf double count: leaves admitted %d events, agents only shipped %d",
			lf.IngestEvents, a.Enqueued-a.RingDrops))
	}
	if a.SentEvents > lf.IngestEvents {
		errs = append(errs, fmt.Errorf("lost acknowledged data at leaf tier: agents saw %d acked, leaves admitted %d",
			a.SentEvents, lf.IngestEvents))
	}
	if fw.EnqueuedEvents != lf.IngestEvents {
		errs = append(errs, fmt.Errorf("forwarder intake: leaves admitted %d events but handed %d to their forwarders",
			lf.IngestEvents, fw.EnqueuedEvents))
	}
	if fw.EnqueuedEvents != fw.AckedEvents+fw.DroppedEvents {
		errs = append(errs, fmt.Errorf("forwarder books: enqueued %d != acked %d + dropped %d",
			fw.EnqueuedEvents, fw.AckedEvents, fw.DroppedEvents))
	}
	if fw.PendingEvents != 0 {
		errs = append(errs, fmt.Errorf("forwarder books: %d events still pending after close", fw.PendingEvents))
	}
	if rt.IngestEvents+rt.RollupSkippedEvents > fw.EnqueuedEvents {
		errs = append(errs, fmt.Errorf("root double count: root saw %d events (admitted %d + skipped %d), leaves forwarded at most %d",
			rt.IngestEvents+rt.RollupSkippedEvents, rt.IngestEvents, rt.RollupSkippedEvents, fw.EnqueuedEvents))
	}
	if fw.AckedEvents > rt.IngestEvents+rt.RollupSkippedEvents {
		errs = append(errs, fmt.Errorf("lost acknowledged rollup data: leaves saw %d events acked, root admitted %d + skipped %d",
			fw.AckedEvents, rt.IngestEvents, rt.RollupSkippedEvents))
	}
	if rt.LostRollups > fw.DroppedRollups {
		errs = append(errs, fmt.Errorf("phantom rollup gaps: root counted %d lost rollups, forwarders only dropped %d",
			rt.LostRollups, fw.DroppedRollups))
	}
	if killedOwned && a.Rehomes == 0 {
		errs = append(errs, errors.New("failover: leaves that homed live streams were killed, yet no agent re-homed"))
	}

	cfg.Logf("multijob seed %d: %d jobs, %d preemptions, fed %d", cfg.Seed, res.Jobs, res.Preemptions, res.Fed)
	cfg.Logf("multijob seed %d: agents %+v", cfg.Seed, res.Agent)
	cfg.Logf("multijob seed %d: leaves %+v", cfg.Seed, res.Leaf)
	cfg.Logf("multijob seed %d: forward %+v", cfg.Seed, res.Forward)
	cfg.Logf("multijob seed %d: root %+v", cfg.Seed, res.Root)
	return res, errors.Join(errs...)
}

// multiJobSchedule generates and schedules one fleet, returning the run
// and its allocation-history CSV.
func multiJobSchedule(cfg scenario.Config, seed uint64) (*scenario.Result, []byte, error) {
	gen, err := scenario.NewGenerator(cfg, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: scenario generator: %w", err)
	}
	sch, err := scenario.NewScheduler(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: scenario scheduler: %w", err)
	}
	res := sch.Run(gen.Generate())
	var buf bytes.Buffer
	if err := fairness.WriteAllocCSV(&buf, res); err != nil {
		return nil, nil, fmt.Errorf("chaos: allocation CSV: %w", err)
	}
	return res, buf.Bytes(), nil
}

// multiJobRuns maps every completed job's admit→finish window onto the
// feed rounds and builds its ground truth — snapshots whose hostnames are
// the very node names the job's agents stream under, and whose TIDs repeat
// across jobs by construction.
func multiJobRuns(cfg MultiJobSoakConfig, sres *scenario.Result, master *sim.RNG) []*jobRun {
	scale := float64(cfg.Rounds) / sres.HorizonSec
	var jobs []*jobRun
	for _, out := range sres.Jobs {
		if !out.Done {
			continue
		}
		jr := &jobRun{spec: out.Spec, out: out}
		jr.start = int(out.FirstAdmitSec * scale)
		if jr.start > cfg.Rounds-2 {
			jr.start = cfg.Rounds - 2
		}
		if jr.start < 0 {
			jr.start = 0
		}
		jr.end = int(out.FinishSec * scale)
		if jr.end < jr.start+2 {
			jr.end = jr.start + 2
		}
		if jr.end > cfg.Rounds {
			jr.end = cfg.Rounds
		}
		jr.nodes = make([]string, jr.spec.Ranks)
		jr.snaps = make([]core.Snapshot, jr.spec.Ranks)
		jr.rows = make([]map[int]uint64, jr.spec.Ranks)
		for r := 0; r < jr.spec.Ranks; r++ {
			node := r % max(cfg.Scenario.Nodes, 1)
			if r < len(out.Placements) {
				node = out.Placements[r].Node
			}
			jr.nodes[r] = fmt.Sprintf("n%02d", node)
			rng := master.Fork()
			snap := synthSnapshot(rng, r, jr.spec.Ranks)
			snap.Hostname = jr.nodes[r]
			snap.Comm = "scenario"
			jr.snaps[r] = snap
			jr.rows[r] = synthCommRow(rng, r, jr.spec.Ranks)
		}
		jobs = append(jobs, jr)
	}
	return jobs
}

// synthLWPEvent is round i's stream event for rank r: always an LWP sample
// (5 TSDB appends each, keeping the per-job time-series census pure
// arithmetic) with a TID that collides across every job sharing the rank.
func synthLWPEvent(r, i int) export.Event {
	t := float64(i) / 100
	return export.Event{Kind: export.EventLWP, TimeSec: t, LWP: &export.LWPSample{
		TimeSec: t, TID: 1000 + r, Kind: "Main", State: 'R',
		UserPct: 75, SysPct: 10, VCtx: uint64(i), NVCtx: uint64(i / 2), CPU: r,
	}}
}

// rootJobCensus fetches /api/jobs once and returns job → merged events.
func rootJobCensus(addr string) (map[string]uint64, error) {
	body, err := get(addr, "/api/jobs")
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	var list []aggd.JobInfo
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("jobs decode: %w", err)
	}
	census := make(map[string]uint64, len(list))
	for _, j := range list {
		census[j.Job] = j.Events
	}
	return census, nil
}

// rootPromJobSums scrapes the root's Prometheus exposition once and sums,
// per job label, the per-stream event counters and the TSDB sample
// counters — the externally visible isolation surface.
func rootPromJobSums(addr string) (events, samples map[string]uint64, err error) {
	body, err := get(addr, "/metrics")
	if err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	events = promJobSums(body, "zerosum_stream_events_total")
	samples = promJobSums(body, "zerosum_tsdb_samples_total")
	return events, samples, nil
}

// promJobSums sums one exposition family's samples per job="..." label.
func promJobSums(text []byte, family string) map[string]uint64 {
	sums := make(map[string]uint64)
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		_, rest, ok := strings.Cut(line, `job="`)
		if !ok {
			continue
		}
		job, _, ok := strings.Cut(rest, `"`)
		if !ok {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		sums[job] += uint64(v)
	}
	return sums
}
