package chaos

import (
	"bytes"
	"fmt"
	"slices"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/scenario"
	"zerosum/internal/scenario/fairness"
	"zerosum/internal/sim"
)

// oneJob is the single-job fleet: ranks streams, two to a node, spanning
// every round and rotating through every event kind.
func oneJob(id string, ranks, rounds int) []Job {
	nodes := make([]string, ranks)
	for r := range nodes {
		nodes[r] = fmt.Sprintf("n%02d", r/2)
	}
	return []Job{{ID: id, Nodes: nodes, End: rounds, Event: synthEvent}}
}

// flatPlan is the acceptance shape of the packet-fault soak: 8 agents
// against a flat root with every fault class enabled, each agent crashed
// and restarted once, and the root's front-end bounced mid-run.
func flatPlan(seed uint64) Plan {
	return Plan{
		Seed:       seed,
		Rounds:     256,
		Fleet:      oneJob("chaos-soak", 8, 256),
		RingCap:    96, // small enough that feed bursts overflow it
		Profile:    AllFaults(),
		AgentKills: 1,
		BounceRoot: true,
		Invariants: append(slices.Clone(bookInvariants), tsdbReadPath),
	}
}

// treePlan is the acceptance shape of the aggregation-tree soak: 9 agents
// hashed over 3 leaves under one root, every leaf crash-killed and
// restarted mid-run, the root front-end bounced midway. The fault model is
// process death rather than the flat plan's packet mangling; the two
// compose rather than overlap.
func treePlan(seed uint64) Plan {
	return Plan{
		Seed:       seed,
		Rounds:     240,
		Fleet:      oneJob("chaos-tree", 9, 240),
		Leaves:     3,
		RingCap:    256,
		LeafKills:  3,
		BounceRoot: true,
		Invariants: append(slices.Concat(bookInvariants, treeInvariants), tsdbReadPath),
	}
}

// multiJobPlan is the acceptance shape of the isolation soak: a
// scenario-generated job population, scheduled by the fairness scheduler,
// each admitted job streaming through the tree plan's topology and faults
// only during its admit→finish window scaled onto the feed rounds — so the
// set of concurrently live jobs is the scheduler's cluster occupancy. Jobs
// reuse the same node names, rank numbers and TIDs on purpose: any cross-job
// state sharing in the tree shows up as a broken per-job book.
//
// The schedule is under audit too: a second generator+scheduler run at the
// seed must reproduce the allocation-history CSV byte-for-byte (the contract
// the fairness tooling goldens against), and a fleet that never preempts is
// too idle to exercise contention.
func multiJobPlan(seed uint64) (Plan, error) {
	const rounds = 240
	cfg := multiJobScenario()
	sres, csv, err := multiJobSchedule(cfg, seed)
	if err != nil {
		return Plan{}, err
	}
	if _, csv2, err := multiJobSchedule(cfg, seed); err != nil {
		return Plan{}, err
	} else if !bytes.Equal(csv, csv2) {
		return Plan{}, fmt.Errorf("chaos: scenario seed %d is not replayable: allocation CSVs differ (%d vs %d bytes)",
			seed, len(csv), len(csv2))
	}
	p := Plan{
		Seed:       seed,
		Rounds:     rounds,
		Leaves:     3,
		RingCap:    256,
		LeafKills:  3,
		BounceRoot: true,
		Invariants: append(slices.Concat(bookInvariants, treeInvariants), jobTSDBCensus),
	}
	// Each completed job's window maps onto the feed rounds (two at least);
	// its ranks stream from the nodes the schedule placed them on.
	scale := rounds / sres.HorizonSec
	preemptions := 0
	for _, out := range sres.Jobs {
		preemptions += out.Preemptions
		if !out.Done {
			continue
		}
		job := Job{ID: out.Spec.ID, Event: synthLWPEvent}
		job.Start = max(min(int(out.FirstAdmitSec*scale), rounds-2), 0)
		job.End = min(max(int(out.FinishSec*scale), job.Start+2), rounds)
		for r := 0; r < out.Spec.Ranks; r++ {
			node := r % cfg.Nodes
			if r < len(out.Placements) {
				node = out.Placements[r].Node
			}
			job.Nodes = append(job.Nodes, fmt.Sprintf("n%02d", node))
		}
		p.Fleet = append(p.Fleet, job)
	}
	if len(p.Fleet) == 0 || preemptions == 0 {
		return Plan{}, fmt.Errorf("chaos: scenario seed %d is too idle: %d jobs completed, %d preemptions",
			seed, len(p.Fleet), preemptions)
	}
	return p, nil
}

// multiJobScenario is the multi-job fleet: small ranks so the live agent
// population tracks cluster occupancy (tens, not hundreds), a preempting
// three-queue mix so job windows interleave and overlap, and no GPUs so
// every generated job is feasible and the admitted count stays at the full
// population — sized so a scheduler run admits well over the 100-job
// acceptance floor.
func multiJobScenario() scenario.Config {
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
		return synthLWPEvent(r, i)
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

// synthLWPEvent is round i's stream event for rank r: always an LWP sample
// (see jobTSDBCensus) with a TID that collides across every job sharing
// the rank.
func synthLWPEvent(r, i int) export.Event {
	t := float64(i) / 100
	return export.Event{Kind: export.EventLWP, TimeSec: t, LWP: &export.LWPSample{
		TimeSec: t, TID: 1000 + r, Kind: "Main", State: 'R',
		UserPct: 75, SysPct: 10, VCtx: uint64(i), NVCtx: uint64(i / 2), CPU: r,
	}}
}

// synthSnapshot builds rank r's deterministic end-of-run snapshot — the
// ground truth the aggregator must reproduce byte-for-byte after the run.
// Its hostname is the very node name the rank's agent streams under, and
// its TIDs repeat across jobs by construction.
func synthSnapshot(rng *sim.RNG, r, size int, node string) core.Snapshot {
	return core.Snapshot{
		DurationSec: 100 + rng.Float64()*10,
		Rank:        r,
		Size:        size,
		PID:         4000 + r,
		Hostname:    node,
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
