package aggd

// Golden-file tests for the TSDB query API. The three endpoint families —
// range query, windowed heatmap, top-k — serve JSON that downstream
// tooling scripts against, so the exact bytes are pinned under testdata/;
// any shape drift must show up as a reviewable diff.
//
// Regenerate with:
//
//	go test ./internal/aggd -run TestTSDBGolden -update

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/tsdb"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenIngest loads a deterministic two-node, three-rank job: 25 seconds
// of per-second samples per rank plus an end-of-run snapshot each. Block
// width 10s guarantees sealed chunks (and therefore rollup-served buckets)
// inside the query windows below. pick routes each rank's frames to an
// ingest base URL, so the same fixture drives a flat server (constant pick)
// or a leaf tier (consistent-hash pick).
func goldenIngest(t *testing.T, pick func(node string, rank int) string) []core.Snapshot {
	t.Helper()
	var snaps []core.Snapshot
	for rank := 0; rank < 3; rank++ {
		node := "node-a"
		if rank >= 2 {
			node = "node-b"
		}
		var frames [][]byte
		for sec := 0; sec < 25; sec++ {
			tt := float64(sec)
			ev := []export.Event{
				{Kind: export.EventLWP, TimeSec: tt, LWP: &export.LWPSample{
					TID: 1000 + rank, Kind: "Main", State: 'R',
					UserPct: float64(50 + 10*rank + sec%5), SysPct: float64(5 + sec%3),
					VCtx: uint64(10 * sec), NVCtx: uint64(rank * sec),
					CPU: rank, Stalled: rank == 1 && sec >= 20,
				}},
				{Kind: export.EventHWT, TimeSec: tt, HWT: &export.HWTSample{
					CPU: rank, IdlePct: float64(20 - rank), SysPct: 10,
					UserPct: float64(70 + rank),
				}},
				{Kind: export.EventGPU, TimeSec: tt, GPU: &export.GPUSample{
					GPU: rank % 2, Metric: "Device Busy %", Value: float64(40 + sec),
				}},
				{Kind: export.EventMem, TimeSec: tt, Mem: &export.MemSample{
					TotalKB: 64 << 20, FreeKB: uint64(32<<20 - 100*sec),
					ProcRSSKB: uint64(1<<20 + 10*sec),
				}},
				{Kind: export.EventIO, TimeSec: tt, IO: &export.IOSample{
					ReadBytes: uint64(4096 * sec), WriteBytes: uint64(512 * sec),
				}},
			}
			frame, err := EncodeBatchFrame(&Batch{
				Origin: Origin{Job: "jobG", Node: node, Rank: rank},
				Epoch:  1, Seq: uint64(sec), Events: ev,
			})
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
		snap := testSnapshot(rank, node)
		snaps = append(snaps, snap)
		sf, err := EncodeSnapshotFrame(&SnapshotMsg{
			Origin:   Origin{Job: "jobG", Node: node, Rank: rank},
			Snapshot: snap,
			CommRow:  map[int]uint64{(rank + 1) % 3: uint64(1024 * (rank + 1))},
		})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, sf)
		if resp := postFrames(t, pick(node, rank), false, frames...); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("ingest rank %d: %s", rank, resp.Status)
		}
	}
	return snaps
}

func TestTSDBGolden(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	srv := NewServer(ServerConfig{
		Now:  func() time.Time { return fixed },
		TSDB: tsdb.Options{Block: 10 * time.Second, Downsample: 2 * time.Second},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	goldenIngest(t, func(string, int) string { return ts.URL })

	cases := []struct {
		golden string
		url    string
	}{
		{"query_stepped.json", "/api/job/jobG/query?metric=lwp.user_pct&step=10&agg=mean"},
		{"query_raw.json", "/api/job/jobG/query?metric=lwp.nvctx&rank=2&start=5&end=10"},
		{"query_delta.json", "/api/job/jobG/query?metric=io.read_bytes&step=10&agg=delta&node=node-a"},
		{"heatmap_window.json", "/api/job/jobG/heatmap?metric=hwt.user_pct&start=5&end=25&step=5&agg=max"},
		{"heatmap_sparse.json", "/api/job/jobG/heatmap?metric=lwp.stalled&start=0&end=30&step=10&agg=max"},
		{"topk.json", "/api/job/jobG/topk?metric=lwp.nvctx&agg=delta&k=2&start=0&end=25"},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", tc.url, resp.Status, body)
		}
		path := filepath.Join("testdata", "golden", tc.golden)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s (run with -update to regenerate)", err)
		}
		if string(body) != string(want) {
			t.Errorf("%s drifted from %s:\n got: %s\nwant: %s", tc.url, path, body, want)
		}
	}
}

// TestTSDBHeatmapOversizeIs400: a step that keeps each row within the
// per-query bucket bound can still ask for more cells than that bound once
// every row of the job is counted; the endpoint refuses it as a bad request
// instead of allocating the matrix.
func TestTSDBHeatmapOversizeIs400(t *testing.T) {
	srv := NewServer(ServerConfig{TSDB: tsdb.Options{Block: 10 * time.Second}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	goldenIngest(t, func(string, int) string { return ts.URL })

	get := func(step string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/job/jobG/heatmap?metric=hwt.user_pct&start=0&end=30&step=" + step)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get("1")
	var hm TSDBHeatmapResponse
	err := json.NewDecoder(resp.Body).Decode(&hm)
	resp.Body.Close()
	if err != nil || len(hm.Rows) < 2 {
		t.Fatalf("heatmap at a 1 s step: %d rows, %v", len(hm.Rows), err)
	}
	// Half again the buckets per row that rows × buckets may reach: each
	// row stays under the bound, the matrix does not.
	step := 30 / float64(3<<20/(2*len(hm.Rows)))
	resp = get(strconv.FormatFloat(step, 'f', -1, 64))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a %d-row heatmap at a %g s step: %s, want 400", len(hm.Rows), step, resp.Status)
	}
}

// TestSummaryByteIdentityOverTSDB pins the refactor invariant: moving
// snapshot storage into the TSDB store must not change a byte of the
// summary endpoint. The expected body is computed the way the pre-TSDB
// server did — fold the snapshots (rank-ordered) through report.Aggregate
// and render with the same indented encoder.
func TestSummaryByteIdentityOverTSDB(t *testing.T) {
	srv := NewServer(ServerConfig{TSDB: tsdb.Options{Block: 10 * time.Second}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	snaps := goldenIngest(t, func(string, int) string { return ts.URL })

	summary, err := reportAggregate(snaps, srv.cfg.Thresholds)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/job/jobG/summary")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %s: %s", resp.Status, body)
	}
	if string(body) != summary {
		t.Fatalf("summary not byte-identical to the direct aggregation:\n got: %s\nwant: %s", body, summary)
	}
}

// reportAggregate renders snapshots exactly as the summary handler's
// pre-TSDB implementation did.
func reportAggregate(snaps []core.Snapshot, th core.EvalThresholds) (string, error) {
	summary, err := report.Aggregate(snaps, th)
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
