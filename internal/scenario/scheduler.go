package scenario

import (
	"fmt"
	"math"

	"zerosum/internal/sim"
)

// EventKind classifies one row of the allocation history.
type EventKind uint8

const (
	// EventSubmit records a job arriving in its queue.
	EventSubmit EventKind = iota
	// EventAdmit records a job (or a preempted remainder) starting to run.
	EventAdmit
	// EventPreempt records a running job evicted back to its queue.
	EventPreempt
	// EventFinish records a job completing its full duration.
	EventFinish
	// EventReject records a job that can never fit even on an idle
	// cluster; it is dropped rather than pending forever.
	EventReject
)

// String returns the CSV token for the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventAdmit:
		return "admit"
	case EventPreempt:
		return "preempt"
	case EventFinish:
		return "finish"
	case EventReject:
		return "reject"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one allocation-history row: what happened, to whom, and the
// post-event allocation state of the job's queue and the whole cluster.
type Event struct {
	At    sim.Time
	Kind  EventKind
	Job   string
	Queue string
	// Ranks/CPUs/GPUs are the job's demand (CPUs and GPUs cluster-wide).
	Ranks, CPUs, GPUs int
	// QueueCPUs is the queue's allocated CPU slots after the event;
	// QueueShare is that over cluster slot capacity; FairShare the
	// queue's weight-derived entitlement.
	QueueCPUs  int
	QueueShare float64
	FairShare  float64
	// TotalCPUs is cluster-wide allocated slots after the event and
	// OverlapCPUs the number of physical CPUs carrying more than one
	// allocation (oversubscription pressure) after the event.
	TotalCPUs   int
	OverlapCPUs int
	// Pending is the number of jobs waiting in the queue after the event.
	Pending int
}

// Placement is the CPU grant one rank holds on one node. Under
// oversubscription distinct jobs' placements may name the same physical
// CPU — that collision is the affinity overlap the monitor measures.
type Placement struct {
	Node int
	CPUs []int
}

// JobOutcome is the per-job verdict after a scheduler run.
type JobOutcome struct {
	Spec        JobSpec
	Admits      int
	Preemptions int
	// WaitSec is arrival to first admission; Starved marks it exceeding
	// Config.StarveSec (or the job never running at all).
	WaitSec float64
	Starved bool
	// Rejected marks a job whose demand cannot fit even on an idle
	// cluster; it never ran.
	Rejected                 bool
	Done                     bool
	FirstAdmitSec, FinishSec float64
	// CPUSeconds is Σ over run slices of slice length × granted CPU
	// slots; conserved across preemptions (== Duration × TotalCPUs once
	// Done).
	CPUSeconds float64
	// Placements is the grant held at first admission, one per rank.
	Placements []Placement
}

// Result is a full scheduler run: the allocation history plus per-job
// outcomes, in spec order.
type Result struct {
	Cfg    Config
	Specs  []JobSpec
	Events []Event
	Jobs   []*JobOutcome
	// CapacityCPUs is the cluster slot capacity (nodes × per-node slots,
	// after oversubscription); CapacityGPUs likewise for devices.
	CapacityCPUs int
	CapacityGPUs int
	// HorizonSec is the time of the last event.
	HorizonSec float64
}

type queueState struct {
	cfg                QueueConfig
	fair               float64
	pending            []*runJob
	allocCPU, allocGPU int
}

// ratio is the queue's dominant share over its fair share — the scalar
// the scheduler minimizes when picking who runs next.
func (q *queueState) ratio(capCPU, capGPU int) float64 {
	return q.ratioWith(0, 0, capCPU, capGPU)
}

func (q *queueState) ratioWith(dCPU, dGPU, capCPU, capGPU int) float64 {
	share := float64(q.allocCPU+dCPU) / float64(capCPU)
	if capGPU > 0 {
		if g := float64(q.allocGPU+dGPU) / float64(capGPU); g > share {
			share = g
		}
	}
	return share / q.fair
}

type runJob struct {
	spec       JobSpec
	out        *JobOutcome
	queue      *queueState
	remaining  sim.Time
	admittedAt sim.Time
	admitOrder uint64
	completion sim.Handle
	placements []Placement
	running    bool
	// shielded marks a job admitted during the current schedule() pass;
	// it cannot be picked as a preemption victim until the pass ends,
	// which bounds preemption chains.
	shielded bool
}

type nodeState struct {
	occ             []int // per physical CPU: number of slot grants touching it
	slotCap         int
	used            int // Σ granted slots
	gpuUsed, gpuCap int
}

func (n *nodeState) freeSlots() int { return n.slotCap - n.used }

// Scheduler replays a job population against the simulated cluster on a
// discrete-event clock. It is single-threaded and fully deterministic:
// identical (Config, specs) produce an identical Result.
type Scheduler struct {
	cfg                    Config
	q                      *sim.Queue
	queues                 []*queueState
	byName                 map[string]*queueState
	nodes                  []*nodeState
	jobs                   []*runJob
	events                 []Event
	capCPU, capGPU         int
	overlap                int
	admitSeq               uint64
	maxRankCPU, maxRankGPU int // largest per-rank grant an idle node can hold
}

// NewScheduler builds a scheduler for cfg's cluster and queues.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:    cfg,
		q:      &sim.Queue{},
		byName: make(map[string]*queueState),
	}
	var wsum float64
	for _, qc := range cfg.Queues {
		wsum += qc.Weight
	}
	for _, qc := range cfg.Queues {
		qs := &queueState{cfg: qc, fair: qc.Weight / wsum}
		s.queues = append(s.queues, qs)
		s.byName[qc.Name] = qs
	}
	slotCap := int(math.Floor(float64(cfg.CPUsPerNode) * cfg.Oversubscribe))
	if slotCap < cfg.CPUsPerNode {
		slotCap = cfg.CPUsPerNode
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &nodeState{
			occ:     make([]int, cfg.CPUsPerNode),
			slotCap: slotCap,
			gpuCap:  cfg.GPUsPerNode,
		})
	}
	s.capCPU = cfg.Nodes * slotCap
	s.capGPU = cfg.Nodes * cfg.GPUsPerNode
	s.maxRankCPU = slotCap
	s.maxRankGPU = cfg.GPUsPerNode
	return s, nil
}

// Run replays specs (already in arrival order) to completion and returns
// the full allocation history. It drives Step until the event queue
// drains.
func (s *Scheduler) Run(specs []JobSpec) *Result {
	s.Load(specs)
	for s.Step() {
	}
	return s.Finish()
}

// Load enqueues the submit events for specs. Use with Step/Finish when
// the caller wants to interleave with other simulated activity (or to
// benchmark stepping); otherwise use Run.
func (s *Scheduler) Load(specs []JobSpec) {
	for i := range specs {
		spec := specs[i]
		qs := s.byName[spec.Queue]
		if qs == nil {
			// Unknown queue names route to the first queue rather than
			// silently vanishing from the history.
			qs = s.queues[0]
			spec.Queue = qs.cfg.Name
		}
		j := &runJob{
			spec:      spec,
			queue:     qs,
			remaining: spec.Duration,
			out:       &JobOutcome{Spec: spec},
		}
		s.jobs = append(s.jobs, j)
		s.q.At(spec.Arrival, func(now sim.Time) { s.submit(j, now) })
	}
}

// Step runs one scheduler event; false when the history is complete.
func (s *Scheduler) Step() bool { return s.q.Step() }

// Finish closes out the run and builds the Result. Jobs still pending at
// the horizon are counted starved.
func (s *Scheduler) Finish() *Result {
	res := &Result{
		Cfg:          s.cfg,
		Events:       s.events,
		CapacityCPUs: s.capCPU,
		CapacityGPUs: s.capGPU,
		HorizonSec:   s.q.Now().Seconds(),
	}
	for _, j := range s.jobs {
		res.Specs = append(res.Specs, j.spec)
		if !j.out.Done && !j.out.Rejected {
			j.out.Starved = true
			j.out.WaitSec = s.q.Now().Seconds() - j.spec.Arrival.Seconds()
		}
		res.Jobs = append(res.Jobs, j.out)
	}
	return res
}

func (s *Scheduler) submit(j *runJob, now sim.Time) {
	infeasible := j.spec.CPUsPerRank > s.maxRankCPU || j.spec.GPUsPerRank > s.maxRankGPU ||
		j.spec.Ranks > s.cfg.Nodes*(s.maxRankCPU/max(1, j.spec.CPUsPerRank))
	if !infeasible && j.spec.GPUsPerRank > 0 {
		infeasible = j.spec.Ranks > s.cfg.Nodes*(s.maxRankGPU/j.spec.GPUsPerRank)
	}
	if infeasible {
		j.out.Rejected = true
		s.record(now, EventReject, j)
		return
	}
	j.queue.pending = append(j.queue.pending, j)
	s.record(now, EventSubmit, j)
	s.schedule(now)
}

// schedule admits as many pending jobs as fit, repeatedly picking the
// queue furthest under its fair share. With preemption enabled, a
// blocked under-share queue may evict the newest admission of a queue
// that stays at or above the requester's post-admission ratio even
// after the eviction — that asymmetry keeps the pass from thrashing.
func (s *Scheduler) schedule(now sim.Time) {
	for {
		admitted := false
		for _, qs := range s.pickOrder() {
			if len(qs.pending) == 0 {
				continue
			}
			j := qs.pending[0]
			if s.tryPlace(j) {
				qs.pending = qs.pending[1:]
				s.admit(j, now)
				admitted = true
				break
			}
			if s.cfg.Preempt && s.preemptFor(j, now) {
				qs.pending = qs.pending[1:]
				s.admit(j, now)
				admitted = true
				break
			}
		}
		if !admitted {
			break
		}
	}
	for _, j := range s.jobs {
		j.shielded = false
	}
}

// pickOrder sorts queues by ascending ratio (ties by config order) so
// the most under-served queue gets first pick.
func (s *Scheduler) pickOrder() []*queueState {
	out := make([]*queueState, len(s.queues))
	copy(out, s.queues)
	for i := 1; i < len(out); i++ {
		for k := i; k > 0; k-- {
			if out[k].ratio(s.capCPU, s.capGPU) < out[k-1].ratio(s.capCPU, s.capGPU) {
				out[k], out[k-1] = out[k-1], out[k]
			} else {
				break
			}
		}
	}
	return out
}

// tryPlace finds a grant for every rank of j, preferring the node with
// the most free slots (ties to the lowest index) and within a node the
// least-occupied physical CPUs. Commits on success; no-op on failure.
func (s *Scheduler) tryPlace(j *runJob) bool {
	var placed []Placement
	for r := 0; r < j.spec.Ranks; r++ {
		best := -1
		for ni, n := range s.nodes {
			if n.freeSlots() < j.spec.CPUsPerRank || n.gpuCap-n.gpuUsed < j.spec.GPUsPerRank {
				continue
			}
			if best < 0 || n.freeSlots() > s.nodes[best].freeSlots() {
				best = ni
			}
		}
		if best < 0 {
			for _, p := range placed {
				s.free(p, j.spec.GPUsPerRank)
			}
			return false
		}
		placed = append(placed, s.grant(best, j.spec.CPUsPerRank, j.spec.GPUsPerRank))
	}
	j.placements = placed
	return true
}

func (s *Scheduler) grant(ni, cpus, gpus int) Placement {
	n := s.nodes[ni]
	p := Placement{Node: ni, CPUs: make([]int, 0, cpus)}
	for k := 0; k < cpus; k++ {
		// Least-occupied physical CPU, tie to the lowest index; a pick
		// that lands on occupancy ≥ 1 creates cross-job overlap.
		best := 0
		for c := 1; c < len(n.occ); c++ {
			if n.occ[c] < n.occ[best] {
				best = c
			}
		}
		if n.occ[best] == 1 {
			s.overlap++
		}
		n.occ[best]++
		p.CPUs = append(p.CPUs, best)
	}
	n.used += cpus
	n.gpuUsed += gpus
	return p
}

func (s *Scheduler) free(p Placement, gpus int) {
	n := s.nodes[p.Node]
	for _, c := range p.CPUs {
		n.occ[c]--
		if n.occ[c] == 1 {
			s.overlap--
		}
	}
	n.used -= len(p.CPUs)
	n.gpuUsed -= gpus
}

func (s *Scheduler) release(j *runJob) {
	for _, p := range j.placements {
		s.free(p, j.spec.GPUsPerRank)
	}
	j.placements = nil
	j.queue.allocCPU -= j.spec.TotalCPUs()
	j.queue.allocGPU -= j.spec.TotalGPUs()
	j.running = false
}

// preemptFor evicts victims until j fits, or undoes nothing and returns
// false. A victim must come from a queue that, even after losing it,
// keeps a ratio at or above what j's queue would reach by admitting j.
func (s *Scheduler) preemptFor(j *runJob, now sim.Time) bool {
	ratioAfter := j.queue.ratioWith(j.spec.TotalCPUs(), j.spec.TotalGPUs(), s.capCPU, s.capGPU)
	for !s.tryPlace(j) {
		victim := s.pickVictim(j, ratioAfter)
		if victim == nil {
			return false
		}
		s.preempt(victim, now)
	}
	return true
}

func (s *Scheduler) pickVictim(j *runJob, ratioAfter float64) *runJob {
	var victim *runJob
	for _, cand := range s.jobs {
		if !cand.running || cand.shielded || cand.queue == j.queue {
			continue
		}
		after := cand.queue.ratioWith(-cand.spec.TotalCPUs(), -cand.spec.TotalGPUs(), s.capCPU, s.capGPU)
		if after < ratioAfter {
			continue
		}
		// Newest admission of the most over-share queue goes first.
		if victim == nil ||
			cand.queue.ratio(s.capCPU, s.capGPU) > victim.queue.ratio(s.capCPU, s.capGPU) ||
			(cand.queue == victim.queue && cand.admitOrder > victim.admitOrder) {
			victim = cand
		}
	}
	return victim
}

func (s *Scheduler) admit(j *runJob, now sim.Time) {
	j.running = true
	j.shielded = true
	j.admittedAt = now
	s.admitSeq++
	j.admitOrder = s.admitSeq
	j.queue.allocCPU += j.spec.TotalCPUs()
	j.queue.allocGPU += j.spec.TotalGPUs()
	if j.out.Admits == 0 {
		j.out.WaitSec = (now - j.spec.Arrival).Seconds()
		j.out.FirstAdmitSec = now.Seconds()
		j.out.Starved = s.cfg.StarveSec > 0 && j.out.WaitSec > s.cfg.StarveSec
		j.out.Placements = j.placements
	}
	j.out.Admits++
	j.completion = s.q.At(now+j.remaining, func(at sim.Time) { s.finish(j, at) })
	s.record(now, EventAdmit, j)
}

func (s *Scheduler) preempt(j *runJob, now sim.Time) {
	j.completion.Cancel()
	ran := now - j.admittedAt
	j.remaining -= ran
	if j.remaining < 0 {
		j.remaining = 0
	}
	j.out.CPUSeconds += ran.Seconds() * float64(j.spec.TotalCPUs())
	j.out.Preemptions++
	s.release(j)
	// Evicted jobs go to the front of their queue so the remainder is
	// rescheduled before anything newer.
	j.queue.pending = append([]*runJob{j}, j.queue.pending...)
	s.record(now, EventPreempt, j)
}

func (s *Scheduler) finish(j *runJob, now sim.Time) {
	ran := now - j.admittedAt
	j.out.CPUSeconds += ran.Seconds() * float64(j.spec.TotalCPUs())
	j.out.Done = true
	j.out.FinishSec = now.Seconds()
	s.release(j)
	s.record(now, EventFinish, j)
	s.schedule(now)
}

func (s *Scheduler) record(now sim.Time, kind EventKind, j *runJob) {
	var total int
	for _, qs := range s.queues {
		total += qs.allocCPU
	}
	s.events = append(s.events, Event{
		At:          now,
		Kind:        kind,
		Job:         j.spec.ID,
		Queue:       j.queue.cfg.Name,
		Ranks:       j.spec.Ranks,
		CPUs:        j.spec.TotalCPUs(),
		GPUs:        j.spec.TotalGPUs(),
		QueueCPUs:   j.queue.allocCPU,
		QueueShare:  float64(j.queue.allocCPU) / float64(s.capCPU),
		FairShare:   j.queue.fair,
		TotalCPUs:   total,
		OverlapCPUs: s.overlap,
		Pending:     len(j.queue.pending),
	})
}
