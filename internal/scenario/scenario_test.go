package scenario_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zerosum/internal/scenario"
	"zerosum/internal/scenario/fairness"
	"zerosum/internal/sim"
	"zerosum/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// outcome returns the outcome for a job ID, or nil.
func outcome(res *scenario.Result, id string) *scenario.JobOutcome {
	for _, o := range res.Jobs {
		if o.Spec.ID == id {
			return o
		}
	}
	return nil
}

func presets(t *testing.T) []scenario.Config {
	t.Helper()
	var out []scenario.Config
	for _, name := range []string{"smoke", "contention", "fleet"} {
		cfg, err := scenario.Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		out = append(out, cfg)
	}
	return out
}

func runScenario(t *testing.T, cfg scenario.Config, seed uint64) ([]scenario.JobSpec, *scenario.Result) {
	t.Helper()
	gen, err := scenario.NewGenerator(cfg, seed)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	specs := gen.Generate()
	sch, err := scenario.NewScheduler(cfg)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	return specs, sch.Run(specs)
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, cfg := range presets(t) {
		a, _ := scenario.NewGenerator(cfg, 7)
		b, _ := scenario.NewGenerator(cfg, 7)
		sa, sb := a.Generate(), b.Generate()
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: same seed produced different specs", cfg.Name)
		}
		c, _ := scenario.NewGenerator(cfg, 8)
		if reflect.DeepEqual(sa, c.Generate()) {
			t.Fatalf("%s: different seeds produced identical specs", cfg.Name)
		}
		for i, s := range sa {
			if i > 0 && s.Arrival < sa[i-1].Arrival {
				t.Fatalf("%s: job %d arrives before job %d", cfg.Name, i, i-1)
			}
			if s.Ranks < 1 || s.Threads < 1 || s.CPUsPerRank < 1 || s.Duration <= 0 {
				t.Fatalf("%s: job %d has degenerate shape: %+v", cfg.Name, i, s)
			}
			if s.CPUsPerRank > cfg.CPUsPerNode {
				t.Fatalf("%s: job %d rank wants %d CPUs on %d-CPU nodes", cfg.Name, i, s.CPUsPerRank, cfg.CPUsPerNode)
			}
		}
	}
}

// TestSchedulerInvariants checks the fairness math that docs/scenarios.md
// promises, across presets and seeds: shares sum to ≤1 at every instant,
// the per-event queue snapshots replay exactly from the event deltas,
// allocated CPU-time is conserved across preemptions, and every feasible
// job eventually finishes.
func TestSchedulerInvariants(t *testing.T) {
	for _, cfg := range presets(t) {
		for _, seed := range []uint64{1, 2, 42} {
			specs, res := runScenario(t, cfg, seed)
			if len(res.Events) == 0 {
				t.Fatalf("%s/%d: empty allocation history", cfg.Name, seed)
			}

			// Replay per-queue and total allocation from deltas; each
			// event's snapshot columns must match the replayed state.
			alloc := map[string]int{}
			for i, ev := range res.Events {
				switch ev.Kind {
				case scenario.EventAdmit:
					alloc[ev.Queue] += ev.CPUs
				case scenario.EventPreempt, scenario.EventFinish:
					alloc[ev.Queue] -= ev.CPUs
				}
				if alloc[ev.Queue] != ev.QueueCPUs {
					t.Fatalf("%s/%d event %d: queue %s snapshot %d != replayed %d",
						cfg.Name, seed, i, ev.Queue, ev.QueueCPUs, alloc[ev.Queue])
				}
				var total int
				for _, v := range alloc {
					if v < 0 {
						t.Fatalf("%s/%d event %d: negative allocation", cfg.Name, seed, i)
					}
					total += v
				}
				if total != ev.TotalCPUs {
					t.Fatalf("%s/%d event %d: total snapshot %d != replayed %d",
						cfg.Name, seed, i, ev.TotalCPUs, total)
				}
				if total > res.CapacityCPUs {
					t.Fatalf("%s/%d event %d: allocation %d exceeds capacity %d (shares sum past 1)",
						cfg.Name, seed, i, total, res.CapacityCPUs)
				}
				if ev.QueueShare > 1 || ev.QueueShare < 0 {
					t.Fatalf("%s/%d event %d: queue share %v out of [0,1]", cfg.Name, seed, i, ev.QueueShare)
				}
				if ev.OverlapCPUs < 0 || ev.OverlapCPUs > cfg.Nodes*cfg.CPUsPerNode {
					t.Fatalf("%s/%d event %d: overlap %d out of range", cfg.Name, seed, i, ev.OverlapCPUs)
				}
			}
			for q, v := range alloc {
				if v != 0 {
					t.Fatalf("%s/%d: queue %s still holds %d CPUs after the horizon", cfg.Name, seed, q, v)
				}
			}

			// Conservation across preemptions: every feasible job finishes
			// with exactly Duration × TotalCPUs of CPU-time.
			if len(res.Jobs) != len(specs) {
				t.Fatalf("%s/%d: %d outcomes for %d specs", cfg.Name, seed, len(res.Jobs), len(specs))
			}
			for _, o := range res.Jobs {
				if o.Rejected {
					continue
				}
				if !o.Done {
					t.Fatalf("%s/%d: feasible job %s never finished", cfg.Name, seed, o.Spec.ID)
				}
				want := o.Spec.Duration.Seconds() * float64(o.Spec.TotalCPUs())
				if diff := math.Abs(o.CPUSeconds - want); diff > 1e-6*want+1e-9 {
					t.Fatalf("%s/%d: job %s cpu-time %v != duration×cpus %v (preemption lost time)",
						cfg.Name, seed, o.Spec.ID, o.CPUSeconds, want)
				}
				if o.Admits != o.Preemptions+1 {
					t.Fatalf("%s/%d: job %s admits %d != preemptions %d + 1",
						cfg.Name, seed, o.Spec.ID, o.Admits, o.Preemptions)
				}
				if len(o.Placements) != o.Spec.Ranks {
					t.Fatalf("%s/%d: job %s has %d placements for %d ranks",
						cfg.Name, seed, o.Spec.ID, len(o.Placements), o.Spec.Ranks)
				}
			}

			// The integral of allocation over time equals the sum of
			// per-job CPU-seconds — the same conservation, measured from
			// the other side of the ledger.
			rep := fairness.Compute(res)
			if diff := math.Abs(rep.CPUTimeAllocatedSec - rep.CPUTimeUsedSec); diff > 1e-6*rep.CPUTimeUsedSec+1e-6 {
				t.Fatalf("%s/%d: allocated cpu-time %v != used %v",
					cfg.Name, seed, rep.CPUTimeAllocatedSec, rep.CPUTimeUsedSec)
			}
			if rep.JainIndex <= 0 || rep.JainIndex > 1+1e-9 {
				t.Fatalf("%s/%d: jain index %v out of (0,1]", cfg.Name, seed, rep.JainIndex)
			}
		}
	}
}

func allocCSV(t *testing.T, cfg scenario.Config, seed uint64) []byte {
	t.Helper()
	_, res := runScenario(t, cfg, seed)
	var buf bytes.Buffer
	if err := fairness.WriteAllocCSV(&buf, res); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	return buf.Bytes()
}

// TestSeedReplayIdentical is the replay contract: the same seed yields
// byte-identical allocation-history CSV, a different seed does not.
func TestSeedReplayIdentical(t *testing.T) {
	for _, cfg := range presets(t) {
		a := allocCSV(t, cfg, 42)
		b := allocCSV(t, cfg, 42)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: same seed produced different CSV", cfg.Name)
		}
		if bytes.Equal(a, allocCSV(t, cfg, 43)) {
			t.Fatalf("%s: different seeds produced identical CSV", cfg.Name)
		}
	}
}

// TestAllocCSVGolden pins the contention preset's allocation history at
// seed 42. Regenerate with: go test ./internal/scenario -run Golden -update
func TestAllocCSVGolden(t *testing.T) {
	cfg, err := scenario.Preset("contention")
	if err != nil {
		t.Fatal(err)
	}
	got := allocCSV(t, cfg, 42)
	golden := filepath.Join("testdata", "alloc_contention_seed42.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("allocation CSV drifted from golden %s (rerun with -update if intended)\ngot %d bytes, want %d", golden, len(got), len(want))
	}
}

func TestLoadPresetAndJSON(t *testing.T) {
	if _, err := scenario.Load("smoke"); err != nil {
		t.Fatalf("load preset: %v", err)
	}
	if _, err := scenario.Load("no-such-preset"); err == nil {
		t.Fatal("unknown preset should fail")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "scen.json")
	body := `{"name":"custom","nodes":2,"cpus_per_node":4,"jobs":3,
		"queues":[{"name":"q","weight":1}],"arrival_mean_sec":1,
		"duration_min_sec":1,"duration_mean_sec":2,"max_ranks":2,"max_threads_per_rank":2}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := scenario.Load(path)
	if err != nil {
		t.Fatalf("load json: %v", err)
	}
	if cfg.Name != "custom" || cfg.Jobs != 3 {
		t.Fatalf("loaded config mangled: %+v", cfg)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"queues":[{"name":"q","weight":-1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Load(bad); err == nil {
		t.Fatal("invalid config should fail validation")
	}
}

// TestRejectInfeasible: demand that can never fit on an idle cluster is
// rejected at submit instead of pending forever.
func TestRejectInfeasible(t *testing.T) {
	cfg := scenario.Config{
		Name: "tiny", Nodes: 1, CPUsPerNode: 2, Jobs: 1,
		Queues: []scenario.QueueConfig{{Name: "q", Weight: 1}},
	}
	sch, err := scenario.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []scenario.JobSpec{
		{ID: "fits", Queue: "q", Arrival: 0, Duration: sim.Second, Ranks: 1, Threads: 1, CPUsPerRank: 2},
		{ID: "toowide", Queue: "q", Arrival: 0, Duration: sim.Second, Ranks: 1, Threads: 1, CPUsPerRank: 3},
		{ID: "toomany", Queue: "q", Arrival: 0, Duration: sim.Second, Ranks: 9, Threads: 1, CPUsPerRank: 1},
	}
	res := sch.Run(specs)
	if o := outcome(res, "fits"); o == nil || !o.Done || o.Rejected {
		t.Fatalf("fits: %+v", o)
	}
	for _, id := range []string{"toowide", "toomany"} {
		if o := outcome(res, id); o == nil || !o.Rejected || o.Done {
			t.Fatalf("%s should be rejected: %+v", id, o)
		}
	}
}

// TestPreemptionOccurs: the contention preset actually preempts — the
// invariants above would hold vacuously on a schedule with no evictions.
func TestPreemptionOccurs(t *testing.T) {
	cfg, err := scenario.Preset("contention")
	if err != nil {
		t.Fatal(err)
	}
	_, res := runScenario(t, cfg, 42)
	rep := fairness.Compute(res)
	if rep.TotalPreemptions == 0 {
		t.Fatal("contention preset at seed 42 should preempt at least once")
	}
	var overlapped bool
	for _, ev := range res.Events {
		if ev.OverlapCPUs > 0 {
			overlapped = true
			break
		}
	}
	if !overlapped {
		t.Fatal("oversubscribed preset should produce cross-job CPU overlap")
	}
}

// TestBuildJobExecutes runs one generated job of each app profile through
// the real workload simulator — the mapping zsrun -scenario relies on.
func TestBuildJobExecutes(t *testing.T) {
	seen := map[string]bool{}
	cfg, err := scenario.Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	specs, res := runScenario(t, cfg, 3)
	for _, spec := range specs {
		if seen[spec.App] {
			continue
		}
		seen[spec.App] = true
		o := outcome(res, spec.ID)
		if o == nil || o.Rejected {
			continue
		}
		jc, err := scenario.BuildJob(spec, len(o.Placements), scenario.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		wr, err := workload.Run(jc)
		if err != nil {
			t.Fatalf("%s (%s): %v", spec.ID, spec.App, err)
		}
		if len(wr.Ranks) != spec.Ranks {
			t.Fatalf("%s: ran %d ranks, want %d", spec.ID, len(wr.Ranks), spec.Ranks)
		}
		if wr.WallSeconds <= 0 {
			t.Fatalf("%s: zero wall time", spec.ID)
		}
	}
	if len(seen) == 0 {
		t.Fatal("smoke preset generated no jobs")
	}
	if _, err := scenario.BuildJob(scenario.JobSpec{ID: "x", App: "nope", Ranks: 1, CPUsPerRank: 1}, 1, scenario.ExecOptions{}); err == nil {
		t.Fatal("unknown app should fail")
	}
}

func TestFairnessReportWrite(t *testing.T) {
	cfg, err := scenario.Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	_, res := runScenario(t, cfg, 1)
	rep := fairness.Compute(res)
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("prod")) || !bytes.Contains(buf.Bytes(), []byte("jain")) {
		t.Fatalf("report missing expected columns:\n%s", buf.String())
	}
	for _, q := range []string{"prod", "batch"} {
		if pts := fairness.Series(res, q); len(pts) == 0 {
			t.Fatalf("empty share series for %s", q)
		}
	}
}
