package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/sim"
)

// cleanBooks closes the books of a faultless run of two colliding LWP-only
// jobs through a 3-leaf tree, without a socket: the frames two agents per
// job would ship go straight into a real root's handler, the root-side
// books are collected from it the way the engine collects them, and the
// agent and leaf tiers — which a clean run passes everything through —
// are written down to match.
func cleanBooks(t *testing.T) *Result {
	t.Helper()
	root := aggd.NewServer(aggd.ServerConfig{})
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		root.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	ingest := func(frame []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if rec := serve(http.MethodPost, "/api/ingest", frame); rec.Code/100 != 2 {
			t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
		}
	}
	res := &Result{Leaves: 3, get: func(path string) ([]byte, error) {
		rec := serve(http.MethodGet, path, nil)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), nil
	}}
	const rounds = 8
	master := sim.NewRNG(1)
	for _, id := range []string{"job-a", "job-b"} {
		j, err := newJobBooks(Job{ID: id, Nodes: []string{"n00", "n01"}, End: rounds, Event: synthLWPEvent}, master)
		if err != nil {
			t.Fatal(err)
		}
		for r, node := range j.Nodes {
			origin := aggd.Origin{Job: id, Node: node, Rank: r}
			events := make([]export.Event, rounds)
			for i := range events {
				events[i] = j.Event(r, i)
			}
			ingest(aggd.EncodeBatchFrame(&aggd.Batch{Origin: origin, Events: events}))
			ingest(aggd.EncodeSnapshotFrame(&aggd.SnapshotMsg{Origin: origin, Snapshot: j.Snaps[r], CommRow: j.Rows[r]}))
			j.Fed += rounds
		}
		j.Agent = aggd.AgentStats{Enqueued: j.Fed, SentEvents: j.Fed, SentBatches: 2}
		res.Jobs = append(res.Jobs, j)
	}
	res.Root = root.Stats()
	res.Leaf = aggd.ServerStats{IngestEvents: res.Root.IngestEvents}
	res.Forward = aggd.FwdStats{EnqueuedEvents: res.Root.IngestEvents, AckedEvents: res.Root.IngestEvents}
	if err := res.collect(root); err != nil {
		t.Fatal(err)
	}
	return res
}

// named looks one invariant up among all, those the plans apply.
func named(t *testing.T, all []Invariant, name string) []Invariant {
	t.Helper()
	i := slices.IndexFunc(all, func(inv Invariant) bool { return inv.Name == name })
	if i < 0 {
		t.Fatalf("no plan applies an invariant named %q", name)
	}
	return all[i : i+1]
}

func planInvariants(t *testing.T) []Invariant {
	mj, err := multiJobPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	var all []Invariant
	for _, inv := range slices.Concat(flatPlan(1).Invariants, treePlan(1).Invariants, mj.Invariants) {
		if !slices.ContainsFunc(all, func(have Invariant) bool { return have.Name == inv.Name }) {
			all = append(all, inv)
		}
	}
	return all
}

// TestInvariantsBite is the guard that the audits themselves work: every
// invariant any plan applies passes the clean books, and fails — under its
// own name — each cooked violation of them.
func TestInvariantsBite(t *testing.T) {
	flat := func(res *Result) { res.Leaves = 0 }
	type violation struct {
		invariant, name string
		cook            func(res *Result)
	}
	violations := []violation{
		{"enqueue accounting", "job", func(res *Result) { res.Jobs[0].Fed++ }},
		{"enqueue accounting", "fleet", func(res *Result) { res.Fed++ }},
		{"agent conservation", "vanished event", func(res *Result) { res.Jobs[1].Agent.SentEvents-- }},
		{"double count", "leaves", func(res *Result) { res.Leaf.IngestEvents = shipped(res.Agent) + 1 }},
		{"double count", "flat root", func(res *Result) { flat(res); res.Root.IngestEvents = shipped(res.Agent) + 1 }},
		{"double count", "root of a tree", func(res *Result) { res.Root.RollupSkippedEvents = 1 }},
		{"lost acknowledged data", "agent→leaf", func(res *Result) { res.Leaf.IngestEvents = res.Agent.SentEvents - 1 }},
		{"lost acknowledged data", "agent→flat root", func(res *Result) { flat(res); res.Root.IngestEvents = res.Agent.SentEvents - 1 }},
		{"lost acknowledged data", "leaf→root", func(res *Result) { res.Root.IngestEvents-- }},
		{"job census", "missing", func(res *Result) { res.Jobs[1].Listed = false }},
		{"job census", "phantom job", func(res *Result) { res.RootJobs++ }},
		{"job census", "over-shipped", func(res *Result) { res.Jobs[0].RootEvents = shipped(res.Jobs[0].Agent) + 1 }},
		{"cross-job bleed", "Σ per-job ≠ root admitted", func(res *Result) { res.JobEvents-- }},
		{"job metrics", "stream events", func(res *Result) { res.Jobs[0].PromEvents++ }},
		{"job metrics", "tsdb samples", func(res *Result) { res.Jobs[1].PromSamples += 5 }},
		{"convergence", "another job's summary", func(res *Result) { res.Jobs[0].Want = res.Jobs[1].Want }},
		{"convergence", "one heatmap cell", func(res *Result) { res.Jobs[1].Rows[0][1]++ }},
		{"tsdb census", "5·LWP", func(res *Result) { res.Root.EventsLWP++ }},
		{"tsdb census", "3·HWT", func(res *Result) { res.Root.EventsHWT++ }},
		{"tsdb census", "GPU", func(res *Result) { res.Root.EventsGPU++ }},
		{"tsdb census", "2·Mem", func(res *Result) { res.Root.EventsMem++ }},
		{"tsdb census", "2·IO", func(res *Result) { res.Root.EventsIO++ }},
		{"forwarder intake", "leaf admitted, not forwarded", func(res *Result) { res.Forward.EnqueuedEvents-- }},
		{"forwarder books", "neither acked nor dropped", func(res *Result) { res.Forward.AckedEvents-- }},
		{"forwarder books", "pending after close", func(res *Result) { res.Forward.PendingEvents = 1 }},
		{"phantom rollup gaps", "gap without a drop", func(res *Result) { res.Root.LostRollups = 1 }},
		{"leaf-stores-nothing", "samples", func(res *Result) { res.LeafSamples = 5 }},
		{"leaf-stores-nothing", "series", func(res *Result) { res.LeafSeries = 1 }},
		{"failover", "without re-home", func(res *Result) { res.KilledOwned = true }},
		{"failover", "wedged gate", func(res *Result) { res.Wedged = errors.New("leaf-1 revived with streams still homed") }},
		{"tsdb read path", "query", func(res *Result) { res.Root.EventsMem++ }},
		{"tsdb read path", "dump", func(res *Result) { res.Root.EventsGPU++ }},
		{"job tsdb census", "5×events", func(res *Result) { res.Jobs[0].TSDBSamples -= 5 }},
	}

	all := planInvariants(t)
	for _, inv := range all {
		if errs := audit([]Invariant{inv}, cleanBooks(t)); len(errs) > 0 {
			t.Errorf("%s rejects clean books: %v", inv.Name, errs)
		}
		if !slices.ContainsFunc(violations, func(v violation) bool { return v.invariant == inv.Name }) {
			t.Errorf("%s has no cooked violation: nothing shows it can fail", inv.Name)
		}
	}
	for _, v := range violations {
		t.Run(v.invariant+"/"+v.name, func(t *testing.T) {
			res := cleanBooks(t)
			v.cook(res)
			errs := audit(named(t, all, v.invariant), res)
			if len(errs) == 0 {
				t.Fatal("violation passed the audit")
			}
			for _, err := range errs {
				if !strings.HasPrefix(err.Error(), v.invariant+": ") {
					t.Errorf("violation is not named after its invariant: %v", err)
				}
			}
		})
	}
}

// TestReviveGateTimeoutIsReported pins the wedged-failover bugfix: a revive
// gate that times out used to revive the leaf in silence, and the failover
// invariant passed as long as any other agent anywhere had re-homed.
func TestReviveGateTimeoutIsReported(t *testing.T) {
	// An agent with a single endpoint can never re-home; it is fed nothing,
	// so it never touches the network either.
	agent, err := aggd.NewAgent(aggd.AgentConfig{URL: "http://127.0.0.1:1", Job: "wedged"})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Kill()
	s := &stream{job: &JobBooks{Job: Job{ID: "wedged"}}, rank: 3, agent: agent}
	lh := &leafHost{id: "leaf-1", url: agent.Home(), homed: []*stream{s}}

	err = lh.awaitRehome(5 * time.Millisecond)
	if err == nil {
		t.Fatal("gate timed out in silence")
	}
	for _, want := range []string{"leaf-1", "wedged/3", lh.url} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error does not name %q: %v", want, err)
		}
	}
	// One agent re-homing elsewhere must not excuse it.
	res := &Result{KilledOwned: true, Agent: aggd.AgentStats{Rehomes: 1}, Wedged: err}
	if errs := audit(named(t, planInvariants(t), "failover"), res); len(errs) != 1 || !strings.Contains(errs[0].Error(), "leaf-1") {
		t.Errorf("failover invariant did not report the wedged gate: %v", errs)
	}
	// A stream whose job closed no longer holds the gate.
	s.agent = nil
	if err := lh.awaitRehome(5 * time.Millisecond); err != nil {
		t.Errorf("closed stream held the gate: %v", err)
	}
}

// TestMultiJobFeedOrderDeterministic pins the feed-order bugfix: the
// harness used to walk Go maps of active jobs and live agents, so two runs
// of one seed fed jobs in different orders.
func TestMultiJobFeedOrderDeterministic(t *testing.T) {
	feedOrder := func() []string {
		var order []string
		runPlan(t, 3, multiJobPlan, func(p *Plan) {
			for i := range p.Fleet {
				job := &p.Fleet[i]
				event := job.Event
				job.Event = func(rank, round int) export.Event {
					order = append(order, fmt.Sprintf("round %d: %s/%d", round, job.ID, rank))
					return event(rank, round)
				}
			}
		})
		return order
	}
	a, b := feedOrder(), feedOrder()
	if len(a) != len(b) {
		t.Fatalf("same seed fed %d events, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feed %d diverged between two runs of one seed: %q vs %q", i, a[i], b[i])
		}
	}
}
