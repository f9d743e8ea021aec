package aggd

// Tree-transparency tests: a job ingested through a two-level aggregation
// tree (leaf servers forwarding rollup frames to a root) must serve every
// root endpoint byte-identical to a flat deployment. The golden files under
// testdata/golden are pinned by the FLAT server's test — this file never
// regenerates them, it proves the tree converges to the same bytes.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/tsdb"
)

// treeHarness is a 2-level tree over httptest servers: nLeaves leaf
// aggregators forwarding to one root, with a consistent-hash router over
// the leaf URLs.
type treeHarness struct {
	root   *Server
	rootTS *httptest.Server
	leaves []*Server
	leafTS []*httptest.Server
	router *Router
}

func newTreeHarness(t *testing.T, nLeaves int, mk func() ServerConfig) *treeHarness {
	t.Helper()
	h := &treeHarness{root: NewServer(mk())}
	h.rootTS = httptest.NewServer(h.root.Handler())
	t.Cleanup(h.rootTS.Close)
	urls := make([]string, nLeaves)
	for i := 0; i < nLeaves; i++ {
		cfg := mk()
		cfg.Forward = &ForwardConfig{
			Upstream:      h.rootTS.URL,
			LeafID:        fmt.Sprintf("leaf-%d", i),
			Epoch:         1,
			FlushInterval: time.Hour, // flushed explicitly
			BackoffBase:   time.Millisecond,
			MaxBackoff:    4 * time.Millisecond,
			DisableGzip:   true,
		}
		leaf := NewServer(cfg)
		ts := httptest.NewServer(leaf.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = leaf.Close() })
		h.leaves = append(h.leaves, leaf)
		h.leafTS = append(h.leafTS, ts)
		urls[i] = ts.URL
	}
	router, err := NewRouter(urls)
	if err != nil {
		t.Fatal(err)
	}
	h.router = router
	return h
}

// flush ships every leaf's buffered batches and snapshots to the root.
func (h *treeHarness) flush(t *testing.T) {
	t.Helper()
	for i, leaf := range h.leaves {
		if !leaf.Forwarder().Flush() {
			t.Fatalf("leaf %d flush failed: %+v", i, leaf.Forwarder().Stats())
		}
	}
}

func treeGet(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", path, resp.Status, body)
	}
	return body
}

// TestTreeGoldenEndpoints feeds the golden fixture through a 3-leaf tree,
// routed by the production consistent-hash router, and asserts the ROOT
// serves the exact bytes the flat server's golden files pin — query,
// heatmap, top-k, and the summary identity — proving the tree is invisible
// to every downstream consumer.
func TestTreeGoldenEndpoints(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	h := newTreeHarness(t, 3, func() ServerConfig {
		return ServerConfig{
			Now:  func() time.Time { return fixed },
			TSDB: tsdb.Options{Block: 10 * time.Second},
		}
	})
	snaps := goldenIngest(t, func(node string, rank int) string {
		return h.router.Pick(node, rank)
	})
	h.flush(t)

	for _, golden := range []struct {
		file string
		url  string
	}{
		{"query_stepped.json", "/api/job/jobG/query?metric=lwp.user_pct&step=10&agg=mean"},
		{"query_raw.json", "/api/job/jobG/query?metric=lwp.nvctx&rank=2&start=5&end=10"},
		{"query_delta.json", "/api/job/jobG/query?metric=io.read_bytes&step=10&agg=delta&node=node-a"},
		{"heatmap_window.json", "/api/job/jobG/heatmap?metric=hwt.user_pct&start=5&end=25&step=5&agg=max"},
		{"heatmap_sparse.json", "/api/job/jobG/heatmap?metric=lwp.stalled&start=0&end=30&step=10&agg=max"},
		{"topk.json", "/api/job/jobG/topk?metric=lwp.nvctx&agg=delta&k=2&start=0&end=25"},
	} {
		body := treeGet(t, h.rootTS.URL, golden.url)
		want, err := os.ReadFile(filepath.Join("testdata", "golden", golden.file))
		if err != nil {
			t.Fatalf("%v (the flat golden test pins this file)", err)
		}
		if string(body) != string(want) {
			t.Errorf("%s served through the tree diverges from the flat golden %s:\n got: %s\nwant: %s",
				golden.url, golden.file, body, want)
		}
	}

	summary, err := reportAggregate(snaps, h.root.cfg.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	if body := treeGet(t, h.rootTS.URL, "/api/job/jobG/summary"); string(body) != summary {
		t.Fatalf("tree summary not byte-identical to the direct aggregation:\n got: %s\nwant: %s", body, summary)
	}

	st := h.root.Stats()
	if st.RollupFrames == 0 || st.IngestEvents == 0 {
		t.Fatalf("fixture never exercised the rollup path: %+v", st)
	}
	if st.DupBatches != 0 || st.RollupSkippedEvents != 0 || st.LostRollups != 0 {
		t.Fatalf("clean tree run saw faults: %+v", st)
	}
}

// TestTreeFleetScale pushes a simulated fleet — 1000 nodes, 4 ranks per
// node at 25+ LWP threads each (≥100k LWPs) — through the 2-level tree and
// asserts the root's summary is byte-identical to report.Aggregate over the
// same snapshots, and that event conservation holds exactly. This is the
// scale gate: consistent-hash fan-in, rollup re-framing, and root-side
// re-merge must not lose, duplicate, or reorder anything at fleet size.
func TestTreeFleetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale tree test skipped in -short mode")
	}
	const (
		nodes        = 1000
		ranksPerNode = 4
		lwpsPerRank  = 26 // 1000*4*26 = 104_000 LWPs
		job          = "fleet"
	)
	h := newTreeHarness(t, 3, func() ServerConfig { return ServerConfig{} })

	// Frames grouped per leaf so the whole fleet lands in one POST per leaf.
	byLeaf := make(map[string][][]byte)
	var snaps []core.Snapshot
	var fedEvents uint64
	rank := 0
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("node-%04d", n)
		for r := 0; r < ranksPerNode; r++ {
			origin := Origin{Job: job, Node: node, Rank: rank}
			ev := []export.Event{
				{Kind: export.EventLWP, TimeSec: 1, LWP: &export.LWPSample{
					TID: 100 + rank, Kind: "Main", State: 'R', UserPct: float64(rank % 100),
				}},
				{Kind: export.EventMem, TimeSec: 1, Mem: &export.MemSample{
					TotalKB: 64 << 20, FreeKB: uint64(32<<20 - rank),
				}},
			}
			bf, err := EncodeBatchFrame(&Batch{Origin: origin, Epoch: 1, Events: ev})
			if err != nil {
				t.Fatal(err)
			}
			fedEvents += uint64(len(ev))

			snap := core.Snapshot{
				DurationSec: 60, Rank: rank, Size: nodes * ranksPerNode,
				PID: 9000 + rank, Hostname: node, Comm: "fleetapp",
				MemPeakRSSKB: uint64(1<<20 + rank), MemMinFreeKB: 16 << 20,
				MemTotalKB: 64 << 20, Samples: 60,
			}
			for l := 0; l < lwpsPerRank; l++ {
				kind := core.KindOpenMP
				if l == 0 {
					kind = core.KindMain
				}
				snap.LWPs = append(snap.LWPs, core.ThreadSummary{
					TID: 9000 + rank*lwpsPerRank + l, Label: "w", Kind: kind,
					UTimePct: float64((rank + l) % 90), STimePct: float64(l % 10),
					VCtx: uint64(l), NVCtx: uint64(rank % 7),
				})
			}
			snap.HWTs = []core.HWTSummary{{CPU: r, IdlePct: 10, SysPct: 10, UserPct: 80}}
			snaps = append(snaps, snap)
			sf, err := EncodeSnapshotFrame(&SnapshotMsg{Origin: origin, Snapshot: snap})
			if err != nil {
				t.Fatal(err)
			}
			leaf := h.router.Pick(node, rank)
			byLeaf[leaf] = append(byLeaf[leaf], bf, sf)
			rank++
		}
	}
	if got := nodes * ranksPerNode * lwpsPerRank; got < 100_000 {
		t.Fatalf("fixture too small: %d LWPs", got)
	}
	if len(byLeaf) != 3 {
		t.Fatalf("router concentrated the fleet on %d of 3 leaves", len(byLeaf))
	}
	for leaf, frames := range byLeaf {
		if resp := postFrames(t, leaf, true, frames...); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("fleet ingest via %s: %s", leaf, resp.Status)
		}
	}
	h.flush(t)

	var leafAdmitted uint64
	for _, leaf := range h.leaves {
		leafAdmitted += leaf.Stats().IngestEvents
	}
	rs := h.root.Stats()
	if leafAdmitted != fedEvents || rs.IngestEvents != fedEvents {
		t.Fatalf("fleet conservation: fed %d events, leaves admitted %d, root merged %d",
			fedEvents, leafAdmitted, rs.IngestEvents)
	}
	if rs.IngestSnapshots != uint64(len(snaps)) {
		t.Fatalf("fleet snapshots: root holds %d of %d", rs.IngestSnapshots, len(snaps))
	}

	want, err := reportAggregate(snaps, h.root.cfg.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	got := treeGet(t, h.rootTS.URL, "/api/job/"+job+"/summary")
	if string(got) != want {
		t.Fatalf("fleet summary served through the tree is not byte-identical to the flat aggregation (%d vs %d bytes)",
			len(got), len(want))
	}
	sum, err := report.Aggregate(snaps, h.root.cfg.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ranks != nodes*ranksPerNode {
		t.Fatalf("ground truth covers %d ranks, want %d", sum.Ranks, nodes*ranksPerNode)
	}
}
