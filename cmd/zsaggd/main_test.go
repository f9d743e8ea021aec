package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/tsdb"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRestoreServesDump dumps a job from one root, restores the dump into a
// fresh root through restoreDumps (what -restore runs), and checks the
// restored root lists the job and answers the same range query.
func TestRestoreServesDump(t *testing.T) {
	cfg := aggd.ServerConfig{TSDB: tsdb.Options{Block: 10 * time.Second}}
	src := httptest.NewServer(aggd.NewServer(cfg).Handler())
	defer src.Close()

	var body []byte
	for sec := 0; sec < 25; sec++ {
		var err error
		body, err = aggd.AppendBatchFrame(body, &aggd.Batch{
			Origin: aggd.Origin{Job: "demo", Node: "node-a", Rank: 0},
			Epoch:  1, Seq: uint64(sec),
			Events: []export.Event{{Kind: export.EventLWP, TimeSec: float64(sec), LWP: &export.LWPSample{
				TID: 1000, Kind: "Main", State: 'R',
				UserPct: float64(50 + sec%7), SysPct: float64(sec % 3), CPU: 1,
			}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(src.URL+"/api/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ingest: %s", resp.Status)
	}

	const query = "/api/job/demo/query?metric=lwp.user_pct"
	code, want := get(t, src.URL+query)
	if code != http.StatusOK {
		t.Fatalf("source query: %d %s", code, want)
	}
	code, dump := get(t, src.URL+"/api/job/demo/tsdb")
	if code != http.StatusOK {
		t.Fatalf("dump: %d %s", code, dump)
	}
	path := filepath.Join(t.TempDir(), "demo.zstb")
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		t.Fatal(err)
	}

	restored := aggd.NewServer(cfg)
	if err := restoreDumps(restored, path); err != nil {
		t.Fatal(err)
	}
	dst := httptest.NewServer(restored.Handler())
	defer dst.Close()
	if code, got := get(t, dst.URL+query); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("restored query: %d %s\nwant %s", code, got, want)
	}
	code, body = get(t, dst.URL+"/api/jobs")
	var jobs []aggd.JobInfo
	if err := json.Unmarshal(body, &jobs); code != http.StatusOK || err != nil || len(jobs) != 1 || jobs[0].Job != "demo" {
		t.Fatalf("restored /api/jobs: %d %s (%v)", code, body, err)
	}
}
