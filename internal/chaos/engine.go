package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/sim"
)

// Plan is one soak: a topology, a fleet, a fault schedule and the
// invariants to audit afterwards. Every random choice in the run — fault
// schedules, synthetic snapshot contents, jittered backoffs — derives from
// Seed, so a failure replays from the plan and the seed alone. There are no
// defaults: the constructors in plans.go spell every value out.
type Plan struct {
	Seed uint64
	// Rounds is the length of the feed: each round pushes one event into
	// every stream of every job whose window covers it.
	Rounds int
	Fleet  []Job
	// Leaves is the leaf-aggregator count under the root; 0 is the flat
	// deployment, agents posting to the root directly.
	Leaves  int
	RingCap int // the agents' ring size
	// Profile mangles packets on the agent hop and cuts connections at every
	// listener.
	Profile FaultProfile
	// AgentKills is how many times each stream's agent is crash-killed
	// mid-window and restarted as a new epoch.
	AgentKills int
	// LeafKills is how many leaves are crash-killed at staggered rounds and
	// later restarted as a new forwarder epoch on the same address.
	LeafKills int
	// BounceRoot restarts the root's HTTP front-end midway: the store
	// survives, every in-flight request dies with its connection.
	BounceRoot bool
	Invariants []Invariant
	Logf       func(format string, args ...any) // optional progress output
}

// Job is one member of the fleet: rank r streams from Nodes[r], as its own
// aggd job, one event per feed round in [Start, End).
type Job struct {
	ID         string
	Nodes      []string
	Start, End int
	Event      func(rank, round int) export.Event
}

// JobBooks is one job's ground truth and all the run collected about it.
type JobBooks struct {
	Job
	// The fault-free world: the snapshots and comm rows delivered at the
	// end of the run, and the summary the root must converge to.
	Snaps []core.Snapshot
	Rows  []map[int]uint64
	Want  *report.JobSummary

	Fed   uint64          // events pushed into the job's live agents
	Agent aggd.AgentStats // summed over every incarnation of every rank

	Listed      bool   // the root's /api/jobs names the job
	RootEvents  uint64 // events the root merged into it, per /api/jobs
	TSDBSamples uint64 // samples the root's store holds for it
	PromEvents  uint64 // Σ zerosum_stream_events_total{job=...}
	PromSamples uint64 // zerosum_tsdb_samples_total{job=...}

	streams []*stream
}

// Result is the books of one run, closed per job and per tier (each tier
// summed over every incarnation of every member).
type Result struct {
	Leaves  int
	Jobs    []*JobBooks
	Fed     uint64 // Σ over jobs
	Agent   aggd.AgentStats
	Leaf    aggd.ServerStats
	Forward aggd.FwdStats
	// LeafSamples and LeafSeries are what the leaves' stores hold, summed
	// over every incarnation: a leaf relays, so both stay 0.
	LeafSamples, LeafSeries uint64
	Root                    aggd.ServerStats
	// Faults sums every injector: connection cuts are the listeners', the
	// rest the streams' transports'.
	Faults    InjectorStats
	JobEvents uint64 // Σ over jobs of the root's per-job event census
	RootJobs  int    // jobs the root's /api/jobs lists
	// KilledOwned: a killed leaf homed live streams, so a run without a
	// re-home failed to fail over. Wedged: the final revive gate timed out.
	KilledOwned bool
	Wedged      error

	// get reads one API path from the root past the fault layer; it is only
	// valid while the invariants run.
	get func(path string) ([]byte, error)
}

// newJobBooks opens a job's books with its ground truth. That comes first:
// snapshots and comm rows are part of the fault-free world, not of the
// fault schedule, and the root must converge to the same bytes no matter
// how many tiers sit in between.
func newJobBooks(job Job, master *sim.RNG) (*JobBooks, error) {
	jb := &JobBooks{Job: job}
	for r, node := range job.Nodes {
		rng := master.Fork()
		jb.Snaps = append(jb.Snaps, synthSnapshot(rng, r, len(job.Nodes), node))
		jb.Rows = append(jb.Rows, synthCommRow(rng, r, len(job.Nodes)))
	}
	var err error
	if jb.Want, err = report.Aggregate(jb.Snaps, core.EvalThresholds{}); err != nil {
		return nil, fmt.Errorf("chaos: job %s fault-free aggregate: %w", job.ID, err)
	}
	return jb, nil
}

// engine is one run in flight: plan, pipeline under test (tier.go), books.
type engine struct {
	p      Plan
	res    *Result
	master *sim.RNG

	root      *aggd.Server
	rootFront *frontend
	leaves    []*leafHost
	router    *aggd.Router // over the leaves; over the root alone when flat
	dead      *leafHost    // the one leaf currently down, see leafFaults

	transport *http.Transport // under every agent, courier and forwarder
	injectors []*Injector     // every listener's and stream's
}

// run executes p: real aggd agents stream over loopback HTTP through the
// fault layer into a real root (via real leaves, if any) while p's faults
// fire; then the network heals, final snapshots are delivered, the books are
// closed and p.Invariants audit them. The returned error (nil on a clean
// pass) joins every violated invariant.
//
//zerosum:wallclock the soak paces live goroutines and rebinding sockets on the host clock
func run(p Plan) (*Result, error) {
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
	// Enough idle connections per host that streams mostly keep theirs: the
	// soak is after the pipeline's faults, not TCP churn.
	e := &engine{p: p, master: sim.NewRNG(p.Seed), res: &Result{Leaves: p.Leaves},
		transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	res := e.res
	for _, job := range p.Fleet {
		jb, err := newJobBooks(job, e.master)
		if err != nil {
			return nil, err
		}
		res.Jobs = append(res.Jobs, jb)
	}
	defer e.close()
	if err := e.build(); err != nil {
		return nil, err
	}
	res.get = e.rootFront.get

	for i := 0; i < p.Rounds; i++ {
		if err := e.round(i); err != nil {
			return nil, err
		}
		if i%8 == 7 {
			time.Sleep(200 * time.Microsecond) // let senders run against the faults
		}
	}
	// A leaf still down when feeding ends revives here, gated the same way.
	if lh := e.dead; lh != nil {
		res.Wedged = lh.awaitRehome(10 * time.Second)
		if err := e.revive(lh, p.Rounds); err != nil {
			return nil, err
		}
	}

	// Storm-settling window: the feed outruns the senders, so give them
	// time to work their backlog through the still-faulty network (and the
	// forwarders theirs to the root) before the heal — this is where most
	// retries, gaps and replays happen.
	time.Sleep(30 * time.Millisecond)

	// Heal, then close the books from the bottom up: agents drain their
	// rings over the clean network, couriers deliver the final documents,
	// and closing a leaf flushes its final rollup (tail batches and those
	// documents) upstream before any counter is read.
	for _, inj := range e.injectors {
		inj.Heal()
	}
	e.closeJobs(p.Rounds)
	errs := e.deliverSnapshots()
	for _, lh := range e.leaves {
		_ = lh.srv.Close()
		for _, srv := range append(lh.past, lh.srv) {
			addCounters(&res.Leaf, srv.Stats())
			addCounters(&res.Forward, srv.Forwarder().Stats())
			if st := srv.TSDB(); st != nil {
				for _, job := range st.Jobs() {
					js := st.JobStats(job)
					res.LeafSamples += js.Samples
					res.LeafSeries += uint64(js.Series)
				}
			}
		}
	}
	res.Root = e.root.Stats()
	for _, inj := range e.injectors {
		addCounters(&res.Faults, inj.Stats())
	}
	if err := res.collect(e.root); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, audit(p.Invariants, res)...)
	res.get = nil // the root is about to stop; do not keep it alive either

	p.Logf("seed %d: %d jobs fed %d events, faults %+v", p.Seed, len(res.Jobs), res.Fed, res.Faults)
	p.Logf("seed %d: agents %+v", p.Seed, res.Agent)
	p.Logf("seed %d: leaves %+v forwarding %+v", p.Seed, res.Leaf, res.Forward)
	p.Logf("seed %d: root %+v", p.Seed, res.Root)
	return res, errors.Join(errs...)
}

// round is feed round i: leaf faults, then job windows closing and opening,
// then one event into every live stream, then the root bounce. Jobs and
// streams are walked in fleet order, so the harness side of a seed is a
// pure function of the seed.
func (e *engine) round(i int) error {
	if err := e.leafFaults(i); err != nil {
		return err
	}
	e.closeJobs(i)
	for _, j := range e.res.Jobs {
		if i < j.Start || i >= j.End {
			continue
		}
		if i == j.Start {
			for r := range j.Nodes {
				j.streams = append(j.streams, &stream{job: j, rank: r, inj: e.injector()})
			}
		}
		for _, s := range j.streams {
			if i == j.Start || e.agentKillDue(s, i) {
				if err := e.restart(s, i); err != nil {
					return err
				}
			}
			s.agent.Subscriber()(j.Event(s.rank, i))
		}
		// Fed counts what the harness pushed into live agents; a crash may
		// strand nothing, because Kill folds the ring remainder and the
		// in-flight shipment into SendDrops.
		j.Fed += uint64(len(j.streams))
	}
	if e.p.BounceRoot && i == e.p.Rounds/2 {
		e.p.Logf("restarting root front-end at round %d", i)
		if err := e.rootFront.restart(); err != nil {
			return fmt.Errorf("chaos: root restart: %w", err)
		}
	}
	return nil
}

// leafFaults fires the leaf kill or revive due at round i. Both rounds are
// lower bounds. The revive is condition-gated, not tick-counted: it waits
// until every stream that homed the leaf at kill time has re-homed
// (observable via Agent.Home), so slow scheduling on small hosts delays the
// revive instead of racing it. Kills are likewise deferred while another
// leaf is still down, preserving the one-dead-leaf-at-a-time shape the
// stagger encodes — streams always have a live sibling to re-home to.
func (e *engine) leafFaults(i int) error {
	for _, lh := range e.leaves {
		switch {
		case e.dead == nil && lh.killAt > 0 && lh.killAt <= i:
			// A crash: listener, live connections, dedup state and forward
			// buffer all go; the open streams that home on the leaf are
			// remembered.
			e.dead, lh.killAt = lh, 0
			lh.front.stop()
			lh.srv.Forwarder().Kill()
			lh.past = append(lh.past, lh.srv)
			for _, j := range e.res.Jobs {
				for _, s := range j.streams {
					if s.agent != nil && s.agent.Home() == lh.url {
						lh.homed = append(lh.homed, s)
						e.res.KilledOwned = true
					}
				}
			}
			e.p.Logf("killed %s at round %d (epoch %d, %d homed streams)", lh.id, i, lh.epoch, len(lh.homed))
		case e.dead == lh && lh.reviveAt <= i && len(lh.stuck()) == 0:
			if err := e.revive(lh, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// agentKillDue reports whether round i crash-kills s's agent: each stream
// dies AgentKills times across its job's window, at points staggered by
// rank so the server sees overlapping incarnations.
func (e *engine) agentKillDue(s *stream, i int) bool {
	j := s.job
	for k := 1; k <= e.p.AgentKills; k++ {
		at := j.Start + k*(j.End-j.Start)/(e.p.AgentKills+1) - s.rank*3
		if at <= j.Start {
			at = j.Start + 1 + s.rank%3
		}
		if i == at {
			return true
		}
	}
	return false
}

// closeJobs gracefully closes the agents of every job whose window ended by
// round end, settling what they cannot deliver as send drops in its books.
func (e *engine) closeJobs(end int) {
	for _, j := range e.res.Jobs {
		for _, s := range j.streams {
			if j.End <= end && s.agent != nil {
				_ = s.agent.Close()
				s.retire()
			}
		}
	}
}

// deliverSnapshots pushes every rank's end-of-run documents after the heal,
// through short-lived courier agents: a job's own agents may have closed
// long ago, and a leaf crash between acking a snapshot and forwarding it
// would silently eat it, so the model is an external collector pushing
// end-of-job documents once the tree is stable. PushSnapshot itself retries
// and walks the failover ring, so a courier survives a slow leaf too.
func (e *engine) deliverSnapshots() (errs []error) {
	passThrough := NewInjector(e.master.Fork(), FaultProfile{})
	for _, j := range e.res.Jobs {
		for r := range j.Nodes {
			courier, err := e.agent(&stream{job: j, rank: r, inj: passThrough}, 1)
			if err == nil {
				err = courier.PushSnapshot(j.Snaps[r], j.Rows[r])
				_ = courier.Close()
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("job %s rank %d snapshot: %w", j.ID, r, err))
			}
		}
	}
	return errs
}

// collect closes the per-job and fleet books from the root's own surfaces,
// each read once: the store's sample counters, the /api/jobs census and the
// Prometheus exposition (the externally visible isolation surface).
func (res *Result) collect(root *aggd.Server) error {
	for _, j := range res.Jobs {
		j.TSDBSamples = root.TSDB().JobStats(j.ID).Samples
		res.Fed += j.Fed
		addCounters(&res.Agent, j.Agent)
	}
	body, err := res.get("/api/jobs")
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var list []aggd.JobInfo
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("jobs decode: %w", err)
	}
	census := make(map[string]uint64, len(list))
	for _, info := range list {
		census[info.Job] = info.Events
	}
	metrics, err := res.get("/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	promEvents := promJobSums(metrics, "zerosum_stream_events_total")
	promSamples := promJobSums(metrics, "zerosum_tsdb_samples_total")
	res.RootJobs = len(list)
	for _, j := range res.Jobs {
		j.RootEvents, j.Listed = census[j.ID]
		j.PromEvents, j.PromSamples = promEvents[j.ID], promSamples[j.ID]
		res.JobEvents += j.RootEvents
	}
	return nil
}

// promJobSums sums one exposition family's samples per job="..." label.
func promJobSums(text []byte, family string) map[string]uint64 {
	sums := make(map[string]uint64)
	row := regexp.MustCompile(`(?m)^` + family + `\{(?:[^}]*,)?job="([^"]*)"[^}]*\} (\S+)$`)
	for _, m := range row.FindAllSubmatch(text, -1) {
		if v, err := strconv.ParseFloat(string(m[2]), 64); err == nil {
			sums[string(m[1])] += uint64(v)
		}
	}
	return sums
}

// addCounters adds src's uint64 fields to dst's. The stats structs the
// books sum (agent, server, forwarder, injector) are flat counter sets, so
// a counter added to one is summed without a matching edit here. Their
// Epoch fields are summed too; that sum means nothing and nothing reads it.
func addCounters[T any](dst *T, src T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}
