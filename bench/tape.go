package main

import (
	"crypto/sha256"
	"fmt"
	"hash"

	"zerosum/internal/export"
	"zerosum/internal/openmp"
	"zerosum/internal/sim"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
	"zerosum/internal/workload"
)

const (
	tapeRanks = 8  // the Table 3 job: srun -n8 -c7
	numKinds  = 5  // LWP, HWT, GPU, Mem, IO — heartbeats never reach the stream
	tapeSteps = 96 // DefaultMiniQMC: ~26 simulated seconds, one tick per second
)

// table3Job is the paper's Table 3 launch (Frontier, srun -n8 -c7, 7 OpenMP
// threads bound spread/cores) plus one GCD per rank, so every event kind
// occurs. Both the tape and sample_node run it.
func table3Job(seed uint64, steps int) workload.Config {
	mq := workload.DefaultMiniQMC()
	mq.Steps = steps
	return workload.Config{
		Machine: topology.Frontier,
		App:     mq,
		Srun: slurm.Options{NTasks: tapeRanks, CoresPerTask: 7, GPUsPerTask: 1,
			GPUBind: slurm.GPUBindClosest},
		OMP:  openmp.Env{NumThreads: 7, Bind: openmp.BindSpread, Places: openmp.PlacesCores},
		Seed: seed,
	}
}

// tapeRank is one rank's recorded stream, flattened: events[i] happened on
// tick tickOf[i]. Payload pointers target copies the tape owns, so replay
// publishes them without touching the heap.
type tapeRank struct {
	events []export.Event
	tickOf []int32
	starts []int // starts[t] is the index of tick t's first event; starts[ticks] == len(events)
}

// tick returns the events of tick t.
func (tr *tapeRank) tick(t int) []export.Event { return tr.events[tr.starts[t]:tr.starts[t+1]] }

// tape is the immutable input of every replaying workload: one monitored
// run of table3Job at the paper's 1 Hz, captured at the export.Stream.
type tape struct {
	node  string
	ticks int // every rank is cut to the same tick count
	ranks [tapeRanks]tapeRank
	kinds [numKinds]int
	sha   string
}

// copyEvent deep-copies a borrowed stream event (see export.Event).
func copyEvent(ev export.Event) export.Event {
	switch ev.Kind {
	case export.EventLWP:
		p := *ev.LWP
		ev.LWP = &p
	case export.EventHWT:
		p := *ev.HWT
		ev.HWT = &p
	case export.EventGPU:
		p := *ev.GPU
		ev.GPU = &p
	case export.EventMem:
		p := *ev.Mem
		ev.Mem = &p
	case export.EventIO:
		p := *ev.IO
		ev.IO = &p
	}
	return ev
}

// hashEvent folds one event into the tape digest in a codec-independent
// rendering, so the digest pins the input and not the wire format.
func hashEvent(h hash.Hash, rank int, ev export.Event) {
	fmt.Fprintf(h, "%d %d %v ", rank, ev.Kind, ev.TimeSec)
	switch ev.Kind {
	case export.EventLWP:
		fmt.Fprintf(h, "%+v\n", *ev.LWP)
	case export.EventHWT:
		fmt.Fprintf(h, "%+v\n", *ev.HWT)
	case export.EventGPU:
		fmt.Fprintf(h, "%+v\n", *ev.GPU)
	case export.EventMem:
		fmt.Fprintf(h, "%+v\n", *ev.Mem)
	case export.EventIO:
		fmt.Fprintf(h, "%+v\n", *ev.IO)
	}
}

// buildTape runs the job once and records what each rank's monitor
// published. steps scales the job (tapeSteps is the paper's length).
func buildTape(seed uint64, steps int) (*tape, error) {
	tp := &tape{}
	var raw [tapeRanks][]export.Event
	cfg := table3Job(seed, steps)
	cfg.Monitor = workload.MonitorConfig{
		Enabled: true, Period: sim.Second, CPU: -1, DropSeries: true,
		StreamFor: func(rank int, node string) *export.Stream {
			tp.node = node
			s := &export.Stream{}
			s.Subscribe(func(ev export.Event) { raw[rank] = append(raw[rank], copyEvent(ev)) })
			return s
		},
	}
	if _, err := workload.Run(cfg); err != nil {
		return nil, fmt.Errorf("tape: %w", err)
	}
	// A tick is a run of events sharing one TimeSec; ranks whose monitor
	// got one more sample in before the app exited are cut to the shortest.
	tp.ticks = -1
	for r := range raw {
		n, last := 0, -1.0
		for _, ev := range raw[r] {
			if ev.TimeSec != last {
				n, last = n+1, ev.TimeSec
			}
		}
		if tp.ticks < 0 || n < tp.ticks {
			tp.ticks = n
		}
	}
	if tp.ticks < 2 {
		return nil, fmt.Errorf("tape: only %d ticks recorded", tp.ticks)
	}
	h := sha256.New()
	for r := range raw {
		tick, last := -1, -1.0
		for _, ev := range raw[r] {
			if ev.TimeSec != last {
				tick, last = tick+1, ev.TimeSec
			}
			if tick >= tp.ticks {
				break
			}
			if int(ev.Kind) >= numKinds {
				return nil, fmt.Errorf("tape: unexpected event kind %d", ev.Kind)
			}
			hashEvent(h, r, ev)
			if len(tp.ranks[r].starts) == tick {
				tp.ranks[r].starts = append(tp.ranks[r].starts, len(tp.ranks[r].events))
			}
			tp.ranks[r].events = append(tp.ranks[r].events, ev)
			tp.ranks[r].tickOf = append(tp.ranks[r].tickOf, int32(tick))
			tp.kinds[ev.Kind]++
		}
		tp.ranks[r].starts = append(tp.ranks[r].starts, len(tp.ranks[r].events))
	}
	tp.sha = fmt.Sprintf("%x", h.Sum(nil))
	return tp, nil
}

// cursor replays one tape rank cyclically under a new origin. Tick k of the
// replay carries TimeSec k: 1 Hz data however fast it is published.
type cursor struct {
	tr    *tapeRank
	ticks int
	pos   int // next event
	cycle int // completed passes over the tape
}

// publish hands the next n events to s and returns the tick index of the
// last one.
func (c *cursor) publish(s *export.Stream, n int) int {
	tick := 0
	for i := 0; i < n; i++ {
		ev := c.tr.events[c.pos]
		tick = c.cycle*c.ticks + int(c.tr.tickOf[c.pos])
		ev.TimeSec = float64(tick)
		s.Publish(ev)
		if c.pos++; c.pos == len(c.tr.events) {
			c.pos, c.cycle = 0, c.cycle+1
		}
	}
	return tick
}

// tickLen is how many events are left of the tick the cursor stands in.
func (c *cursor) tickLen() int { return c.tr.starts[c.tr.tickOf[c.pos]+1] - c.pos }
