package chaos

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/sim"
)

// TreeSoakConfig parameterizes one aggregation-tree soak: a fleet of agents
// consistent-hash-routed over a tier of leaf aggregators that forward
// pre-merged rollups to one root. The fault model is process death — leaves
// crash (store, dedup state and forward buffer all lost) and restart as a
// new epoch, the root's front-end bounces mid-run — rather than the packet
// mangling RunSoak injects; the two suites compose rather than overlap.
type TreeSoakConfig struct {
	Seed           uint64
	Agents         int // concurrent agent streams (default 9)
	EventsPerAgent int // synthetic events fed to each stream (default 240)
	Leaves         int // leaf aggregators under the root (default 3)
	// KillLeaves is how many leaves are crash-killed mid-run at staggered
	// points and later restarted as a new forwarder epoch on the same
	// address (default: every leaf; -1 disables).
	KillLeaves int
	// RestartRoot bounces the root's HTTP front-end midway: the root store
	// survives, every in-flight rollup dies with its connection.
	RestartRoot bool
	// RingCap overrides the agents' ring size (default 256).
	RingCap    int
	Thresholds core.EvalThresholds
	Logf       func(format string, args ...any)
}

func (c TreeSoakConfig) withDefaults() TreeSoakConfig {
	if c.Agents <= 0 {
		c.Agents = 9
	}
	if c.EventsPerAgent <= 0 {
		c.EventsPerAgent = 240
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

// TreeSoakResult reports one tree soak run's counters, summed per tier.
type TreeSoakResult struct {
	Agent     aggd.AgentStats  // summed over every rank
	Leaf      aggd.ServerStats // summed over every leaf incarnation
	Forward   aggd.FwdStats    // summed over every leaf incarnation's forwarder
	Root      aggd.ServerStats
	JobEvents uint64 // events the ROOT merged into the job
}

const treeJob = "chaos-tree"

// leafHost is one leaf position in the tree: a stable address and leaf ID,
// and the succession of server incarnations that lived there. A kill
// discards the live incarnation (its store, per-origin dedup state, and
// forward buffer die with it) but keeps the pointer so the audit can close
// the books over every incarnation's counters.
type leafHost struct {
	id    string
	front *frontend
	epoch uint64
	srv   *aggd.Server
	past  []*aggd.Server
	dead  bool
	// homed is the set of agents whose Home() was this leaf at the moment
	// it was killed; the revive waits until every one of them has re-homed,
	// making the failover assertion a condition rather than a race.
	homed []*aggd.Agent
}

// RunTreeSoak drives cfg.Agents real aggd agents through a two-level
// aggregation tree — cfg.Leaves leaf servers forwarding rollup frames to
// one root — over loopback HTTP, crash-kills leaves (and optionally the
// root front-end) mid-stream, then audits conservation at every tier:
//
//   - agent conservation: every fed event is sent, ring-dropped, or
//     send-dropped, across failovers;
//   - leaf tier no-double-count and at-least-once: the leaves together
//     admitted no more events than the agents shipped, and everything the
//     agents saw acknowledged;
//   - forwarder books: every leaf-admitted event was handed to that
//     incarnation's forwarder and ends the run acked or dropped, never
//     pending;
//   - root no-double-count and at-least-once: events the root admitted or
//     skipped (stale-epoch stragglers after an agent re-homed) never exceed
//     what the leaves forwarded, and cover everything the leaves saw acked;
//   - convergence: the root's served summary and heatmap are byte-identical
//     to the fault-free report.Aggregate of the same snapshots, and its
//     TSDB census matches its admitted per-kind counts exactly.
//
// The returned error (nil on a clean pass) joins every violated invariant.
//
//zerosum:wallclock the soak paces live goroutines and rebinding sockets on the host clock
func RunTreeSoak(cfg TreeSoakConfig) (*TreeSoakResult, error) {
	cfg = cfg.withDefaults()
	master := sim.NewRNG(cfg.Seed)

	// Ground truth first, exactly as the flat soak builds it: the root must
	// converge to the same bytes no matter how many tiers sit in between.
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

	// The tree: root first (leaves need its address), then the leaf tier.
	// Front-ends take pass-through injectors — this suite's faults are
	// process deaths, not mangled packets.
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

	// Agents, each homed by the router with the full ring as failover order.
	agentTransport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer agentTransport.CloseIdleConnections()
	slots := make([]*treeSlot, cfg.Agents)
	for r := range slots {
		node := fmt.Sprintf("n%02d", r/2)
		agent, err := aggd.NewAgent(aggd.AgentConfig{
			URLs:          router.Order(node, r),
			Job:           treeJob,
			Node:          node,
			Rank:          r,
			RingCap:       cfg.RingCap,
			BatchSize:     16,
			FlushInterval: time.Millisecond,
			MaxRetries:    2,
			BackoffBase:   time.Millisecond,
			MaxBackoff:    4 * time.Millisecond,
			DisableGzip:   true,
			Client:        &http.Client{Transport: agentTransport, Timeout: 250 * time.Millisecond},
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: tree rank %d: %w", r, err)
		}
		slots[r] = &treeSlot{rank: r, agent: agent, feed: agent.Subscriber()}
	}

	// Fault schedule: leaf k dies at a staggered round and revives no
	// earlier than a window later, with a fresh store under a bumped
	// forwarder epoch. The revive is condition-gated, not tick-counted:
	// it waits until every agent that homed the leaf at kill time has
	// re-homed (observable via Agent.Home), so slow scheduling on small
	// hosts delays the revive instead of racing it. Kills are likewise
	// deferred while another leaf is still down, preserving the
	// one-dead-leaf-at-a-time shape the stagger encodes — agents always
	// have a live sibling to re-home to.
	killRound := make(map[int]int)
	reviveRound := make(map[int]int)
	killedOwned := false
	if cfg.KillLeaves > 0 {
		stagger := cfg.EventsPerAgent / (cfg.KillLeaves + 2)
		if stagger < 2 {
			stagger = 2
		}
		gap := cfg.EventsPerAgent / 10
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
		restartRootAt = cfg.EventsPerAgent / 2
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

	for i := 0; i < cfg.EventsPerAgent; i++ {
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
				for _, s := range slots {
					if s.agent.Home() == leafURLs[li] {
						lh.homed = append(lh.homed, s.agent)
					}
				}
				if len(lh.homed) > 0 {
					killedOwned = true
				}
				cfg.Logf("killed %s at round %d (epoch %d, %d homed streams)",
					lh.id, i, lh.epoch, len(lh.homed))
			case hasRevive && rev <= i && lh.dead && rehomedAway(lh.homed, leafURLs[li]):
				delete(reviveRound, li)
				if err := revive(lh, i); err != nil {
					return nil, err
				}
			}
		}
		for _, s := range slots {
			s.feed(synthEvent(s.rank, i))
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

	// Any leaf still down when feeding ends revives here, again gated on
	// its homed streams leaving. Their rings hold the events fed since the
	// kill, so the flush ticker keeps attempting shipments into the dead
	// address until the failover fires — no new events are needed. The
	// deadline turns a wedged failover into a loud assertion, not a hang.
	deadline := time.Now().Add(10 * time.Second)
	for li, lh := range leaves {
		if !lh.dead {
			continue
		}
		for !rehomedAway(lh.homed, leafURLs[li]) && time.Now().Before(deadline) {
			time.Sleep(500 * time.Microsecond)
		}
		if err := revive(lh, cfg.EventsPerAgent); err != nil {
			return nil, err
		}
	}

	// Settle: let agents drain their rings into the (now all-alive) leaf
	// tier and the leaf forwarders work their rollup backlog to the root.
	time.Sleep(30 * time.Millisecond)

	var errs []error
	for _, s := range slots {
		if err := pushSnapshotRetry(s.agent, snaps[s.rank], rows[s.rank]); err != nil {
			errs = append(errs, fmt.Errorf("rank %d snapshot: %w", s.rank, err))
		}
	}
	res := &TreeSoakResult{}
	for _, s := range slots {
		_ = s.agent.Close()
		addStats(&res.Agent, s.agent.Stats())
	}
	// Closing a leaf flushes its final rollup (batches and the snapshot
	// documents just pushed) upstream before the books are read.
	for _, lh := range leaves {
		_ = lh.srv.Close()
		for _, srv := range append(lh.past, lh.srv) {
			addServerStats(&res.Leaf, srv.Stats())
			addFwdStats(&res.Forward, srv.Forwarder().Stats())
		}
	}
	res.Root = root.Stats()
	res.JobEvents = jobEvents(rootFront.addr, treeJob, &errs)

	// Tier-by-tier conservation.
	fed := uint64(cfg.Agents) * uint64(cfg.EventsPerAgent)
	a, lf, fw, rt := res.Agent, res.Leaf, res.Forward, res.Root
	if a.Enqueued != fed {
		errs = append(errs, fmt.Errorf("enqueue accounting: agents enqueued %d of %d fed events", a.Enqueued, fed))
	}
	if a.Enqueued != a.RingDrops+a.SendDrops+a.SentEvents {
		errs = append(errs, fmt.Errorf("agent conservation: enqueued %d != ring %d + send %d + sent %d",
			a.Enqueued, a.RingDrops, a.SendDrops, a.SentEvents))
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
	if res.JobEvents != rt.IngestEvents {
		errs = append(errs, fmt.Errorf("root job census: /api/jobs reports %d events, root admitted %d",
			res.JobEvents, rt.IngestEvents))
	}
	if killedOwned && a.Rehomes == 0 {
		errs = append(errs, errors.New("failover: leaves that homed live streams were killed, yet no agent re-homed"))
	}
	checkSummary(rootFront.addr, treeJob, want, &errs)
	checkHeatmap(rootFront.addr, treeJob, rows, cfg.Agents, &errs)
	checkTSDB(rootFront.addr, treeJob, root, res.Root, &errs)

	cfg.Logf("tree seed %d: agents %+v", cfg.Seed, res.Agent)
	cfg.Logf("tree seed %d: leaves %+v", cfg.Seed, res.Leaf)
	cfg.Logf("tree seed %d: forward %+v", cfg.Seed, res.Forward)
	cfg.Logf("tree seed %d: root %+v", cfg.Seed, res.Root)
	return res, errors.Join(errs...)
}

// treeSlot is one rank's agent in the tree soak. Unlike the flat soak's
// slot there is exactly one incarnation: crashes happen to the tier above.
type treeSlot struct {
	rank  int
	agent *aggd.Agent
	feed  export.Subscriber
}

// rehomedAway reports whether every agent in homed has moved off deadURL.
// Vacuously true for an empty set, so unowned leaves revive on schedule.
func rehomedAway(homed []*aggd.Agent, deadURL string) bool {
	for _, a := range homed {
		if a.Home() == deadURL {
			return false
		}
	}
	return true
}

// restartWith rebinds the front-end's address with a replacement handler —
// the crash model for a leaf daemon whose process (store, dedup state and
// all) is replaced by a fresh incarnation rather than merely reconnected.
func (f *frontend) restartWith(h http.Handler) error {
	f.handler = h
	return f.restart()
}

func addServerStats(dst *aggd.ServerStats, s aggd.ServerStats) {
	dst.IngestBatches += s.IngestBatches
	dst.IngestEvents += s.IngestEvents
	dst.IngestSnapshots += s.IngestSnapshots
	dst.IngestErrors += s.IngestErrors
	dst.LostBatches += s.LostBatches
	dst.RecoveredBatches += s.RecoveredBatches
	dst.DupBatches += s.DupBatches
	dst.CorruptFrames += s.CorruptFrames
	dst.WriteErrors += s.WriteErrors
	dst.EventsLWP += s.EventsLWP
	dst.EventsHWT += s.EventsHWT
	dst.EventsGPU += s.EventsGPU
	dst.EventsMem += s.EventsMem
	dst.EventsIO += s.EventsIO
	dst.RollupFrames += s.RollupFrames
	dst.DupRollups += s.DupRollups
	dst.LostRollups += s.LostRollups
	dst.RecoveredRollups += s.RecoveredRollups
	dst.RollupSkippedEvents += s.RollupSkippedEvents
}

func addFwdStats(dst *aggd.FwdStats, s aggd.FwdStats) {
	dst.EnqueuedEvents += s.EnqueuedEvents
	dst.AckedEvents += s.AckedEvents
	dst.DroppedEvents += s.DroppedEvents
	dst.PendingEvents += s.PendingEvents
	dst.SentRollups += s.SentRollups
	dst.DroppedRollups += s.DroppedRollups
	dst.SentSnapshots += s.SentSnapshots
	dst.Retries += s.Retries
}
