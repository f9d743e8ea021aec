package sched

import (
	"fmt"
	"time"

	"zerosum/internal/sim"
	"zerosum/internal/topology"
)

// Params tunes the simulated scheduler. Zero values select defaults.
type Params struct {
	// Quantum is the accounting tick; completions and preemptions are
	// detected at this granularity. Default 1ms.
	Quantum sim.Time
	// Timeslice is how long a task may run while others wait on the same
	// CPU before a non-voluntary context switch. Default 10ms. The
	// oversubscribed Frontier experiments use sub-millisecond slices,
	// matching CFS's scaled sched_min_granularity under heavy load.
	Timeslice sim.Time
	// SMTFactor is each hardware thread's relative speed when both HWTs
	// of a core are busy. Default 0.62.
	SMTFactor float64
	// ThrottleFloor bounds memory-bandwidth throttling from below so a
	// saturated domain still makes progress. Default 0.02.
	ThrottleFloor float64
	// PreemptRefill charges a wake-preempted victim extra full-speed work
	// modelling cache refill after the preemptor polluted its L1/L2: on a
	// bandwidth-saturated domain this extra work costs real memory
	// bandwidth, which is how a tiny monitor thread can perturb a fully
	// occupied core (the paper's 2-threads-per-core overhead case).
	// Default 0.
	PreemptRefill sim.Time
	// SiblingRefillFrac extends PreemptRefill to the task on the victim's
	// SMT sibling (shared L1/L2). Default 0.5 when PreemptRefill is set.
	SiblingRefillFrac float64
	// WakeAffinityNoise is the probability that a waking task lands on a
	// different idle allowed CPU than its last one, modelling Linux's
	// select_idle_sibling imperfection. It is what makes unbound threads
	// "typically migrate at least once" (the paper's Table 2) while
	// pinned threads cannot. Default 0 (perfectly affine wakeups).
	WakeAffinityNoise float64
	// BaseTID seeds PID/TID allocation. Default 18300 (the neighbourhood
	// of the paper's tables, purely cosmetic).
	BaseTID int
	// BaselineMemKB is memory used by the OS and system daemons,
	// reflected in /proc/meminfo. Default 6 GB.
	BaselineMemKB uint64
}

func (p Params) withDefaults() Params {
	if p.Quantum <= 0 {
		p.Quantum = sim.Millisecond
	}
	if p.Timeslice <= 0 {
		p.Timeslice = 10 * sim.Millisecond
	}
	if p.Timeslice < p.Quantum {
		p.Timeslice = p.Quantum
	}
	if p.SMTFactor <= 0 || p.SMTFactor > 1 {
		p.SMTFactor = 0.62
	}
	if p.ThrottleFloor <= 0 {
		p.ThrottleFloor = 0.02
	}
	if p.PreemptRefill > 0 && p.SiblingRefillFrac == 0 {
		p.SiblingRefillFrac = 0.5
	}
	if p.BaseTID <= 0 {
		p.BaseTID = 18300
	}
	if p.BaselineMemKB == 0 {
		p.BaselineMemKB = 6 << 20 // 6 GB
	}
	return p
}

// cpuState is one hardware thread's scheduler state.
type cpuState struct {
	os             int
	domain         int   // NUMA OS index
	siblings       []int // other PUs of the same core
	current        *Task
	queue          []*Task // FIFO ready queue
	busyUser       sim.Time
	busySys        sim.Time
	accountedUntil sim.Time
}

// Kernel simulates the OS scheduler of one compute node.
type Kernel struct {
	Machine *topology.Machine
	Q       *sim.Queue
	RNG     *sim.RNG
	P       Params

	cpus      map[int]*cpuState
	cpuOrder  []int
	procs     []*Process
	procByPID map[int]*Process
	nextID    int

	nActive       int // tasks running or ready
	tickScheduled bool
	prevTick      sim.Time
	throttle      map[int]float64 // per-NUMA-domain rate multiplier this tick
	scratch       []*cpuState     // tick-local active-CPU buffer
	scratch2      []*cpuState     // recalcThrottle buffer (tick may be mid-pass)

	ctxtTotal uint64
	forks     uint64
	bootWall  time.Time
	trace     *Trace
}

// NewKernel builds a kernel over the machine's usable hardware threads.
// All PUs exist (including reserved cores: system tasks could run there),
// and the same event queue can be shared across kernels for multi-node
// simulations.
func NewKernel(m *topology.Machine, q *sim.Queue, rng *sim.RNG, params Params) *Kernel {
	k := &Kernel{
		Machine:   m,
		Q:         q,
		RNG:       rng,
		P:         params.withDefaults(),
		cpus:      make(map[int]*cpuState),
		procByPID: make(map[int]*Process),
		throttle:  make(map[int]float64),
		bootWall:  time.Date(2023, 11, 12, 0, 0, 0, 0, time.UTC), // HUST-23 day
	}
	k.nextID = k.P.BaseTID
	for _, pu := range m.PUs() {
		cs := &cpuState{os: pu.OSIndex, domain: pu.Core.Group.NUMA.OSIndex}
		for _, sib := range pu.Core.PUs {
			if sib.OSIndex != pu.OSIndex {
				cs.siblings = append(cs.siblings, sib.OSIndex)
			}
		}
		k.cpus[pu.OSIndex] = cs
		k.cpuOrder = append(k.cpuOrder, pu.OSIndex)
	}
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.Q.Now() }

// WallClock maps simulated time onto a wall-clock instant so monitors can
// stamp samples with time.Time values.
func (k *Kernel) WallClock() time.Time {
	return k.bootWall.Add(k.Now().Duration())
}

// Hostname returns the node's hostname.
func (k *Kernel) Hostname() string { return k.Machine.Hostname }

// allocID hands out PID/TID values with small gaps, like a real system.
func (k *Kernel) allocID() int {
	id := k.nextID
	k.nextID += 1 + k.RNG.Intn(4)
	return id
}

// NewProcess creates a process with the given command name and cpuset.
// Its first NewTask becomes the main thread (TID == PID).
func (k *Kernel) NewProcess(comm string, affinity topology.CPUSet) *Process {
	if affinity.Empty() {
		affinity = k.Machine.AllPUSet()
	}
	p := &Process{
		PID:       k.allocID(),
		Comm:      comm,
		Affinity:  affinity.Clone(),
		StartTime: k.Now(),
		kernel:    k,
	}
	p.SetRSS(64 << 10)     // 64 MB default footprint
	p.SetVmSize(512 << 10) // 512 MB
	k.procs = append(k.procs, p)
	k.procByPID[p.PID] = p
	k.forks++
	return p
}

// TaskOption configures a new task.
type TaskOption func(*Task)

// WithKind sets the thread classification.
func WithKind(kind ThreadKind) TaskOption { return func(t *Task) { t.Kind = kind } }

// WithAffinity pins the task to the given cpuset instead of inheriting the
// process cpuset.
func WithAffinity(set topology.CPUSet) TaskOption {
	return func(t *Task) { t.Affinity = set.Clone() }
}

// WithWakePreempt marks the task's wakeups as preempting (interactive).
func WithWakePreempt() TaskOption { return func(t *Task) { t.WakePreempts = true } }

// NewTask creates an LWP in process p driven by behavior b and makes it
// runnable immediately.
func (k *Kernel) NewTask(p *Process, comm string, b Behavior, opts ...TaskOption) *Task {
	t := &Task{
		Comm:      comm,
		Proc:      p,
		Affinity:  p.Affinity.Clone(),
		behavior:  b,
		LastCPU:   -1,
		cpu:       -1,
		StartTime: k.Now(),
		state:     stateNew,
	}
	if len(p.Tasks) == 0 {
		t.TID = p.PID
		t.Kind = KindMain
	} else {
		t.TID = k.allocID()
		t.Kind = KindOther
	}
	for _, o := range opts {
		o(t)
	}
	if t.Affinity.Empty() {
		t.Affinity = p.Affinity.Clone()
	}
	p.Tasks = append(p.Tasks, t)
	k.forks++
	k.advance(t, k.Now())
	return t
}

// NewBarrier creates a reusable barrier for n participants.
func (k *Kernel) NewBarrier(n int) *Barrier { return &Barrier{k: k, N: n} }

// NewGate creates a wait/signal gate.
func (k *Kernel) NewGate() *Gate { return &Gate{k: k} }

// Signal releases up to n waiters; surplus signals are retained as credits
// consumed by future waits.
func (g *Gate) Signal(n int) {
	now := g.k.Now()
	for n > 0 && len(g.waiting) > 0 {
		t := g.waiting[0]
		g.waiting = g.waiting[1:]
		g.k.resume(t, now)
		n--
	}
	g.credits += n
}

// Broadcast releases every current waiter.
func (g *Gate) Broadcast() { g.Signal(len(g.waiting)) }

// arrive records t at the barrier; it returns true when t is the last
// arriver (which proceeds without blocking) after waking all others.
func (b *Barrier) arrive(t *Task, now sim.Time) bool {
	if len(b.waiting)+1 >= b.N {
		ws := b.waiting
		b.waiting = nil
		for _, w := range ws {
			b.k.resume(w, now)
		}
		return true
	}
	b.waiting = append(b.waiting, t)
	return false
}

// advance pulls actions from the task's behavior until one of them leaves
// the task running, blocked or exited.
func (k *Kernel) advance(t *Task, now sim.Time) {
	for {
		var a Action
		if t.behavior != nil {
			a = t.behavior.Next(t, now)
		}
		if a == nil {
			a = Exit{}
		}
		for {
			d, ok := a.(Deferred)
			if !ok {
				break
			}
			if d.Fn == nil {
				a = Exit{}
				break
			}
			a = d.Fn()
			if a == nil {
				a = Exit{}
			}
		}
		switch act := a.(type) {
		case Compute:
			if act.Work <= 0 {
				continue
			}
			t.cur = act
			t.workLeft = act.Work
			if t.state != stateRunning {
				k.placeRunnable(t, now)
			}
			return
		case Call:
			if act.Fn != nil {
				act.Fn(now)
			}
		case Sleep:
			if act.D <= 0 {
				continue
			}
			k.blockTask(t, now)
			tt := t
			// `now` is the logical completion time of the previous action,
			// which may precede the tick that detected it; schedule the
			// wake from the logical time so sleep cycles do not stretch by
			// the accounting quantum.
			wake := now + act.D
			if qnow := k.Q.Now(); wake < qnow {
				wake = qnow
			}
			t.wakeHandle = k.Q.At(wake, func(nw sim.Time) { k.resume(tt, nw) })
			return
		case WaitBarrier:
			if act.B.arrive(t, now) {
				continue
			}
			k.blockTask(t, now)
			return
		case WaitGate:
			if act.G.credits > 0 {
				act.G.credits--
				continue
			}
			act.G.waiting = append(act.G.waiting, t)
			k.blockTask(t, now)
			return
		case Exit:
			k.exitTask(t, now)
			return
		default:
			panic(fmt.Sprintf("sched: unknown action %T", a))
		}
	}
}

// resume continues a blocked task whose waiting action has completed: it
// fetches the next action, which (for Compute) re-places the task on a CPU.
func (k *Kernel) resume(t *Task, now sim.Time) {
	if t.state != stateBlocked {
		return
	}
	k.advance(t, now)
}

// blockTask removes the task from execution (a voluntary context switch).
func (k *Kernel) blockTask(t *Task, now sim.Time) {
	switch t.state {
	case stateRunning:
		t.VCtx++
		k.ctxtTotal++
		k.releaseCPU(t, now)
		k.nActive--
	case stateReady:
		t.VCtx++
		k.ctxtTotal++
		k.dequeue(t)
		k.nActive--
	case stateNew:
		// never ran; no context switch
	case stateBlocked:
		return
	}
	t.state = stateBlocked
	k.recalcThrottle()
}

// exitTask ends the task and, when it is the last live task, the process.
func (k *Kernel) exitTask(t *Task, now sim.Time) {
	switch t.state {
	case stateRunning:
		k.ctxtTotal++ // the exit path switches to the next task or idle
		k.releaseCPU(t, now)
		k.nActive--
	case stateReady:
		k.dequeue(t)
		k.nActive--
	}
	t.state = stateExited
	t.Exited = true
	t.ExitTime = now
	live := 0
	for _, tt := range t.Proc.Tasks {
		if !tt.Exited {
			live++
		}
	}
	if live == 0 {
		t.Proc.Exited = true
	}
	k.recalcThrottle()
}

// releaseCPU detaches a running task from its CPU and immediately starts
// the next queued task there, if any.
func (k *Kernel) releaseCPU(t *Task, now sim.Time) {
	c := k.cpus[t.cpu]
	if c == nil || c.current != t {
		return
	}
	if k.trace != nil {
		k.trace.onStop(c.os, now)
	}
	c.current = nil
	t.cpu = -1
	if len(c.queue) > 0 {
		next := c.queue[0]
		c.queue = c.queue[1:]
		k.startOn(next, c, now)
	}
}

// dequeue removes a ready task from whatever queue holds it.
func (k *Kernel) dequeue(t *Task) {
	c := k.cpus[t.cpu]
	if c == nil {
		return
	}
	for i, q := range c.queue {
		if q == t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	t.cpu = -1
}

// placeRunnable makes a blocked or new task runnable and finds it a CPU:
// last CPU if idle, else the lowest-index idle allowed CPU, else (for
// preempting wakers) a victim's CPU, else the allowed queue with the least
// load.
func (k *Kernel) placeRunnable(t *Task, now sim.Time) {
	if t.state == stateRunning || t.state == stateReady {
		return
	}
	if t.state == stateExited {
		return
	}
	t.wakeHandle.Cancel()
	k.nActive++

	affine := true
	if k.P.WakeAffinityNoise > 0 && k.RNG.Float64() < k.P.WakeAffinityNoise {
		affine = false
	}
	if affine && t.LastCPU >= 0 && t.Affinity.Contains(t.LastCPU) {
		if c := k.cpus[t.LastCPU]; c != nil && c.current == nil && len(c.queue) == 0 {
			k.startOn(t, c, now)
			k.ensureTick(now)
			k.recalcThrottle()
			return
		}
	}
	var idle *cpuState
	for _, pu := range t.Affinity.List() {
		c := k.cpus[pu]
		if c != nil && c.current == nil && len(c.queue) == 0 {
			// A non-affine wakeup skips the home CPU when an alternative
			// exists.
			if !affine && pu == t.LastCPU && idle == nil {
				idle = c // fallback if nothing else is idle
				continue
			}
			idle = c
			break
		}
	}
	if idle != nil {
		k.startOn(t, idle, now)
		k.ensureTick(now)
		k.recalcThrottle()
		return
	}
	if t.WakePreempts {
		victimCPU := k.pickVictim(t)
		if victimCPU != nil {
			k.preemptFor(t, victimCPU, now)
			k.ensureTick(now)
			k.recalcThrottle()
			return
		}
	}
	// Enqueue on the least-loaded allowed CPU.
	var best *cpuState
	bestLoad := int(^uint(0) >> 1)
	for _, pu := range t.Affinity.List() {
		c := k.cpus[pu]
		if c == nil {
			continue
		}
		load := len(c.queue)
		if c.current != nil {
			load++
		}
		if load < bestLoad {
			bestLoad = load
			best = c
		}
	}
	if best == nil {
		panic(fmt.Sprintf("sched: %v has no allowed CPUs (affinity %s)", t, t.Affinity))
	}
	t.state = stateReady
	t.readySince = now
	t.cpu = best.os
	best.queue = append(best.queue, t)
	k.ensureTick(now)
}

// pickVictim chooses the CPU whose running task a preempting waker will
// displace: the waker's last CPU when allowed, else the lowest-index
// allowed CPU running a non-preempting task.
func (k *Kernel) pickVictim(t *Task) *cpuState {
	if t.LastCPU >= 0 && t.Affinity.Contains(t.LastCPU) {
		if c := k.cpus[t.LastCPU]; c != nil && c.current != nil && !c.current.WakePreempts {
			return c
		}
	}
	for _, pu := range t.Affinity.List() {
		c := k.cpus[pu]
		if c != nil && c.current != nil && !c.current.WakePreempts {
			return c
		}
	}
	return nil
}

// preemptFor displaces the victim on c in favour of waker t (a
// non-voluntary context switch for the victim, charged mid-quantum).
func (k *Kernel) preemptFor(t *Task, c *cpuState, now sim.Time) {
	k.accountCPU(c, now)
	victim := c.current
	if victim == nil { // victim finished during accounting; just start.
		k.startOn(t, c, now)
		return
	}
	victim.NVCtx++
	k.ctxtTotal++
	if k.P.PreemptRefill > 0 {
		if _, ok := victim.cur.(Compute); ok {
			victim.workLeft += k.P.PreemptRefill
		}
		for _, sib := range c.siblings {
			sc := k.cpus[sib]
			if sc == nil || sc.current == nil {
				continue
			}
			k.accountCPU(sc, now) // may retire the sibling's action
			if st := sc.current; st != nil {
				if _, ok := st.cur.(Compute); ok {
					st.workLeft += sim.Time(float64(k.P.PreemptRefill) * k.P.SiblingRefillFrac)
				}
			}
		}
	}
	victim.state = stateReady
	victim.readySince = now
	victim.cpu = c.os
	c.queue = append(c.queue, victim)
	c.current = nil
	k.startOn(t, c, now)
}

// startOn begins running t on c at time now.
func (k *Kernel) startOn(t *Task, c *cpuState, now sim.Time) {
	if c.current != nil {
		panic(fmt.Sprintf("sched: cpu %d already running %v", c.os, c.current))
	}
	if t.LastCPU >= 0 && t.LastCPU != c.os {
		t.Migrations++
	}
	t.LastCPU = c.os
	t.cpu = c.os
	t.state = stateRunning
	t.sliceUsed = 0
	c.current = t
	c.accountedUntil = now
	if k.trace != nil {
		k.trace.onStart(t, c.os, now)
	}
}

// SetAffinity changes a task's allowed CPUs at runtime, migrating it off a
// now-forbidden CPU like sched_setaffinity does.
func (k *Kernel) SetAffinity(t *Task, set topology.CPUSet) {
	if set.Empty() {
		return
	}
	now := k.Now()
	t.Affinity = set.Clone()
	switch t.state {
	case stateRunning:
		if !set.Contains(t.cpu) {
			c := k.cpus[t.cpu]
			k.accountCPU(c, now)
			if c.current == t {
				if k.trace != nil {
					k.trace.onStop(c.os, now)
				}
				c.current = nil
				t.cpu = -1
				if len(c.queue) > 0 {
					next := c.queue[0]
					c.queue = c.queue[1:]
					k.startOn(next, c, now)
				}
			}
			t.state = stateBlocked // transiently, for placeRunnable
			k.nActive--
			k.placeRunnable(t, now)
		}
	case stateReady:
		if !set.Contains(t.cpu) {
			k.dequeue(t)
			t.state = stateBlocked
			k.nActive--
			k.placeRunnable(t, now)
		}
	}
}

// ensureTick guarantees a scheduler tick is pending while work exists.
func (k *Kernel) ensureTick(now sim.Time) {
	if k.tickScheduled || k.nActive == 0 {
		return
	}
	k.tickScheduled = true
	next := (now/k.P.Quantum + 1) * k.P.Quantum
	k.Q.At(next, k.tick)
}

// tick is the periodic scheduler pass: account progress, detect
// completions, expire timeslices, pull work to idle CPUs.
func (k *Kernel) tick(now sim.Time) {
	k.tickScheduled = false
	// One pass to find active CPUs; the phases below then touch only
	// those (the common case is a few busy cores on a 128-PU node).
	k.scratch = k.scratch[:0]
	for _, idx := range k.cpuOrder {
		c := k.cpus[idx]
		if c.current != nil || len(c.queue) > 0 {
			k.scratch = append(k.scratch, c)
		}
	}
	active := k.scratch
	k.computeThrottle(active)
	for _, c := range active {
		k.accountCPU(c, now)
	}
	// Timeslice expiry: rotate when others wait.
	for _, c := range active {
		t := c.current
		if t == nil || len(c.queue) == 0 {
			continue
		}
		if t.sliceUsed >= k.P.Timeslice {
			t.NVCtx++
			k.ctxtTotal++
			t.state = stateReady
			t.readySince = now
			t.cpu = c.os
			c.current = nil
			c.queue = append(c.queue, t)
			next := c.queue[0]
			c.queue = c.queue[1:]
			k.startOn(next, c, now)
		}
	}
	// Idle balance: pull queued tasks to idle allowed CPUs.
	for _, c := range active {
		if len(c.queue) == 0 {
			continue
		}
		remaining := c.queue[:0]
		for _, t := range c.queue {
			moved := false
			for _, pu := range t.Affinity.List() {
				dst := k.cpus[pu]
				if dst != nil && dst != c && dst.current == nil && len(dst.queue) == 0 {
					t.cpu = -1
					k.startOn(t, dst, now)
					moved = true
					break
				}
			}
			if !moved {
				remaining = append(remaining, t)
			}
		}
		c.queue = remaining
	}
	k.prevTick = now
	if k.nActive > 0 && !k.tickScheduled {
		k.tickScheduled = true
		k.Q.At(now+k.P.Quantum, k.tick)
	}
}

// recalcThrottle recomputes bandwidth throttles from the full CPU set; it
// must run whenever the set of running tasks changes between ticks
// (blocking, waking, preemption), otherwise stale throttles let the fluid
// bandwidth model briefly over- or under-serve a domain.
func (k *Kernel) recalcThrottle() {
	k.scratch2 = k.scratch2[:0]
	for _, idx := range k.cpuOrder {
		c := k.cpus[idx]
		if c.current != nil {
			k.scratch2 = append(k.scratch2, c)
		}
	}
	k.computeThrottle(k.scratch2)
}

// computeThrottle derives each NUMA domain's rate multiplier from the
// memory-bandwidth demand of currently running tasks.
func (k *Kernel) computeThrottle(active []*cpuState) {
	demand := map[int]float64{}
	for _, c := range active {
		if c.current == nil {
			continue
		}
		if cur, ok := c.current.cur.(Compute); ok && cur.BytesPerSec > 0 {
			demand[c.domain] += cur.BytesPerSec * k.smtFactor(c)
		}
	}
	for d := range k.throttle {
		delete(k.throttle, d)
	}
	for d, dem := range demand {
		nn := k.Machine.NUMAByIndex(d)
		if nn == nil || nn.BandwidthBytesPerSec <= 0 || dem <= nn.BandwidthBytesPerSec {
			k.throttle[d] = 1
			continue
		}
		th := nn.BandwidthBytesPerSec / dem
		if th < k.P.ThrottleFloor {
			th = k.P.ThrottleFloor
		}
		k.throttle[d] = th
	}
}

// smtFactor returns the speed multiplier for CPU c given sibling activity.
func (k *Kernel) smtFactor(c *cpuState) float64 {
	for _, s := range c.siblings {
		if sc := k.cpus[s]; sc != nil && sc.current != nil {
			return k.P.SMTFactor
		}
	}
	return 1
}

// rateFor combines SMT and bandwidth throttling for the task running on c.
func (k *Kernel) rateFor(c *cpuState, t *Task) float64 {
	rate := k.smtFactor(c)
	if cur, ok := t.cur.(Compute); ok && cur.BytesPerSec > 0 {
		if th, ok := k.throttle[c.domain]; ok {
			rate *= th
		}
	}
	if rate <= 0 {
		rate = k.P.ThrottleFloor
	}
	return rate
}

// accountCPU advances the CPU's accounting up to the given time, crediting
// task progress and CPU time, and driving action completions.
func (k *Kernel) accountCPU(c *cpuState, upto sim.Time) {
	for c.accountedUntil < upto {
		t := c.current
		if t == nil {
			c.accountedUntil = upto
			return
		}
		cur, ok := t.cur.(Compute)
		if !ok {
			// A running task must be computing; anything else is a
			// simulator bug.
			panic(fmt.Sprintf("sched: running %v with non-compute action %T", t, t.cur))
		}
		rate := k.rateFor(c, t)
		span := upto - c.accountedUntil
		need := sim.Time(float64(t.workLeft)/rate) + 1
		run := span
		if need < run {
			run = need
		}
		if run <= 0 {
			run = 1
		}
		sys := sim.Time(float64(run) * cur.SysFrac)
		t.STime += sys
		t.UTime += run - sys
		c.busySys += sys
		c.busyUser += run - sys
		t.sliceUsed += run
		if cur.MinfltPerSec > 0 {
			t.fltCarry += cur.MinfltPerSec * run.Seconds()
			if t.fltCarry >= 1 {
				n := uint64(t.fltCarry)
				t.MinFlt += n
				t.fltCarry -= float64(n)
			}
		}
		t.workLeft -= sim.Time(float64(run) * rate)
		c.accountedUntil += run
		if t.workLeft <= 0 {
			k.advance(t, c.accountedUntil)
			// advance may have blocked/exited the task, in which case
			// releaseCPU already started the next queued task; the loop
			// continues accounting whoever is current now.
		}
	}
}

// Procs returns all processes created on this kernel.
func (k *Kernel) Procs() []*Process { return k.procs }

// ProcByPID returns the process with the given PID, or nil.
func (k *Kernel) ProcByPID(pid int) *Process { return k.procByPID[pid] }

// AllExited reports whether every process has finished.
func (k *Kernel) AllExited() bool {
	for _, p := range k.procs {
		if !p.Exited {
			return false
		}
	}
	return true
}

// Run drives the event queue until every process has exited or maxEvents
// fire (a runaway guard).
func (k *Kernel) Run(maxEvents int) error {
	for i := 0; i < maxEvents; i++ {
		if k.AllExited() {
			return nil
		}
		if !k.Q.Step() {
			if k.AllExited() {
				return nil
			}
			return fmt.Errorf("sched: event queue drained at %v with live processes (deadlock?)", k.Now())
		}
	}
	return fmt.Errorf("sched: exceeded %d events at %v", maxEvents, k.Now())
}

// RunUntil advances simulated time to the deadline.
func (k *Kernel) RunUntil(deadline sim.Time) { k.Q.RunUntil(deadline) }

// CPUTimesSince returns (user, system, idle) jiffy-precision times for one
// CPU since boot. Idle is derived: now - busy.
func (k *Kernel) cpuTimes(idx int) (user, sys, idle sim.Time) {
	c := k.cpus[idx]
	if c == nil {
		return 0, 0, k.Now()
	}
	user, sys = c.busyUser, c.busySys
	idle = k.Now() - user - sys
	if idle < 0 {
		idle = 0
	}
	return user, sys, idle
}
