// Package openmp models the thread-team behaviour of an OpenMP runtime on
// top of the kernel simulator: OMP_NUM_THREADS team sizing, OMP_PLACES
// partitioning (threads/cores/sockets) and OMP_PROC_BIND policies
// (false/master/close/spread), plus OMPT-style thread-begin callbacks — the
// integration surface ZeroSum uses to classify LWPs as OpenMP threads
// (paper §3.1.2). The paper's Tables 1-3 differ only in these settings.
package openmp

import (
	"fmt"
	"strings"

	"zerosum/internal/sched"
	"zerosum/internal/topology"
)

// Policy is the OMP_PROC_BIND binding policy.
type Policy int

// Binding policies.
const (
	BindFalse Policy = iota // no binding: threads inherit the process mask
	BindMaster
	BindClose
	BindSpread
)

func (p Policy) String() string {
	switch p {
	case BindMaster:
		return "master"
	case BindClose:
		return "close"
	case BindSpread:
		return "spread"
	default:
		return "false"
	}
}

// ParsePolicy parses an OMP_PROC_BIND value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "false":
		return BindFalse, nil
	case "true", "close":
		return BindClose, nil
	case "master", "primary":
		return BindMaster, nil
	case "spread":
		return BindSpread, nil
	}
	return BindFalse, fmt.Errorf("openmp: bad OMP_PROC_BIND %q", s)
}

// PlaceKind is the OMP_PLACES granularity.
type PlaceKind int

// Place kinds.
const (
	PlacesThreads PlaceKind = iota
	PlacesCores
	PlacesSockets
)

func (p PlaceKind) String() string {
	switch p {
	case PlacesCores:
		return "cores"
	case PlacesSockets:
		return "sockets"
	default:
		return "threads"
	}
}

// ParsePlaces parses an OMP_PLACES value.
func ParsePlaces(s string) (PlaceKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "threads":
		return PlacesThreads, nil
	case "cores":
		return PlacesCores, nil
	case "sockets":
		return PlacesSockets, nil
	}
	return PlacesThreads, fmt.Errorf("openmp: bad OMP_PLACES %q", s)
}

// Env carries the OpenMP environment settings of a process.
type Env struct {
	// NumThreads is OMP_NUM_THREADS; zero means one per available PU in
	// the process cpuset (the runtime default).
	NumThreads int
	Bind       Policy
	Places     PlaceKind
}

// ParseEnv builds an Env from environment-variable strings.
func ParseEnv(numThreads, procBind, places string) (Env, error) {
	var e Env
	if s := strings.TrimSpace(numThreads); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &e.NumThreads); err != nil || e.NumThreads < 0 {
			return e, fmt.Errorf("openmp: bad OMP_NUM_THREADS %q", numThreads)
		}
	}
	var err error
	if e.Bind, err = ParsePolicy(procBind); err != nil {
		return e, err
	}
	if e.Places, err = ParsePlaces(places); err != nil {
		return e, err
	}
	return e, nil
}

// ComputePlaces partitions the cpuset into places of the given granularity,
// in ascending hardware order. Empty intersections are dropped.
func ComputePlaces(m *topology.Machine, cpuset topology.CPUSet, kind PlaceKind) []topology.CPUSet {
	var places []topology.CPUSet
	add := func(s topology.CPUSet) {
		in := s.And(cpuset)
		if !in.Empty() {
			places = append(places, in)
		}
	}
	switch kind {
	case PlacesThreads:
		for _, pu := range cpuset.List() {
			if m.PUByOS(pu) != nil {
				places = append(places, topology.NewCPUSet(pu))
			}
		}
	case PlacesCores:
		for _, c := range m.Cores() {
			var s topology.CPUSet
			for _, pu := range c.PUs {
				s.Set(pu.OSIndex)
			}
			add(s)
		}
	case PlacesSockets:
		for _, pkg := range m.Packages {
			var s topology.CPUSet
			for _, nn := range pkg.NUMA {
				for _, g := range nn.L3 {
					for _, c := range g.Cores {
						for _, pu := range c.PUs {
							s.Set(pu.OSIndex)
						}
					}
				}
			}
			add(s)
		}
	}
	return places
}

// Bindings returns the affinity mask for each of n team threads under the
// policy. With BindFalse every thread gets the full cpuset. With more
// threads than places, threads wrap around (oversubscribing places), as the
// standard prescribes.
func Bindings(places []topology.CPUSet, policy Policy, n int, cpuset topology.CPUSet) []topology.CPUSet {
	out := make([]topology.CPUSet, n)
	if policy == BindFalse || len(places) == 0 {
		for i := range out {
			out[i] = cpuset.Clone()
		}
		return out
	}
	p := len(places)
	for i := 0; i < n; i++ {
		switch policy {
		case BindMaster:
			out[i] = places[0].Clone()
		case BindClose:
			out[i] = places[i%p].Clone()
		case BindSpread:
			// Spread partitions the place list evenly.
			out[i] = places[(i*p)/max(n, 1)%p].Clone()
		}
	}
	return out
}

// ThreadBeginFn is the OMPT thread-begin callback signature: the runtime
// reports each team thread (including the master, threadNum 0) as it is
// identified. ZeroSum registers one of these to classify LWPs.
type ThreadBeginFn func(t *sched.Task, threadNum int)

// Runtime is a per-process OpenMP runtime instance.
type Runtime struct {
	K   *sched.Kernel
	Env Env

	callbacks []ThreadBeginFn
}

// NewRuntime creates a runtime for a kernel with the given environment.
func NewRuntime(k *sched.Kernel, env Env) *Runtime {
	return &Runtime{K: k, Env: env}
}

// OnThreadBegin registers an OMPT-style callback.
func (rt *Runtime) OnThreadBegin(fn ThreadBeginFn) {
	rt.callbacks = append(rt.callbacks, fn)
}

// TeamSize resolves the team size for a process cpuset: OMP_NUM_THREADS if
// set, else one thread per available PU.
func (rt *Runtime) TeamSize(cpuset topology.CPUSet) int {
	if rt.Env.NumThreads > 0 {
		return rt.Env.NumThreads
	}
	if n := cpuset.Count(); n > 0 {
		return n
	}
	return 1
}

// Team is a launched parallel team.
type Team struct {
	// Tasks holds the team in threadNum order; Tasks[0] is the master
	// (the process main thread, not created by the runtime).
	Tasks []*sched.Task
	// Bindings holds the affinity assigned to each thread.
	Bindings []topology.CPUSet
	// Barrier synchronises the team (implicit barriers at region ends).
	Barrier *sched.Barrier
}

// Launch creates the worker threads of a parallel team in process p with
// master as thread 0. workerBehavior builds each worker's life (threadNums
// 1..n-1); the master's behaviour is owned by the caller, since in a real
// program the master executes the parallel region inline. Binding policy is
// applied to the master too, exactly as OMP_PROC_BIND does.
func (rt *Runtime) Launch(p *sched.Process, master *sched.Task, n int, workerBehavior func(threadNum int) sched.Behavior) *Team {
	if n <= 0 {
		n = rt.TeamSize(p.Affinity)
	}
	places := ComputePlaces(rt.K.Machine, p.Affinity, rt.Env.Places)
	bindings := Bindings(places, rt.Env.Bind, n, p.Affinity)
	team := &Team{Bindings: bindings, Barrier: rt.K.NewBarrier(n)}
	if master != nil {
		if rt.Env.Bind != BindFalse {
			rt.K.SetAffinity(master, bindings[0])
		}
		team.Tasks = append(team.Tasks, master)
		master.Kind = sched.KindMain // master stays "Main"; it is also an OpenMP thread
		rt.fire(master, 0)
	}
	for i := 1; i < n; i++ {
		t := rt.K.NewTask(p, p.Comm, workerBehavior(i),
			sched.WithKind(sched.KindOpenMP),
			sched.WithAffinity(bindings[i]))
		team.Tasks = append(team.Tasks, t)
		rt.fire(t, i)
	}
	return team
}

func (rt *Runtime) fire(t *sched.Task, threadNum int) {
	for _, fn := range rt.callbacks {
		fn(t, threadNum)
	}
}

// ProbeTIDs returns the TIDs of a team, emulating the pre-5.1 fallback
// where ZeroSum runs a probe parallel region to learn the team's LWP ids
// when no OMPT support is present (paper §3.1.2).
func (team *Team) ProbeTIDs() []int {
	out := make([]int, 0, len(team.Tasks))
	for _, t := range team.Tasks {
		out = append(out, t.TID)
	}
	return out
}

// WorkshareBarrier returns the action a team thread uses at an implicit
// region barrier.
func (team *Team) WorkshareBarrier() sched.Action {
	return sched.WaitBarrier{B: team.Barrier}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
