package aggd

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/topology"
)

func postFrames(t *testing.T, url string, gz bool, frames ...[]byte) *http.Response {
	t.Helper()
	var body bytes.Buffer
	var w io.Writer = &body
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(&body)
		w = zw
	}
	for _, f := range frames {
		if _, err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url+"/api/ingest", &body)
	if err != nil {
		t.Fatal(err)
	}
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func testSnapshot(rank int, node string) core.Snapshot {
	snap := core.Snapshot{
		DurationSec: 20 + float64(rank),
		Rank:        rank, Size: 4, PID: 1000 + rank, Hostname: node,
		ProcessAff: topology.RangeCPUSet(1, 7),
		MemTotalKB: 1 << 20, MemMinFreeKB: 1 << 19,
	}
	for i := 0; i < 4; i++ {
		snap.LWPs = append(snap.LWPs, core.ThreadSummary{
			TID: 100*rank + i, Kind: core.KindOpenMP, Label: "OpenMP",
			UTimePct: 90, STimePct: 2, NVCtx: uint64(10 * rank), VCtx: 5,
			Affinity: topology.NewCPUSet(i + 1), ObservedCPUs: topology.NewCPUSet(i + 1),
		})
		snap.HWTs = append(snap.HWTs, core.HWTSummary{CPU: i + 1, UserPct: 90, IdlePct: 8})
	}
	return snap
}

func TestServerIngestAndSummary(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	srv := NewServer(ServerConfig{Now: func() time.Time { return fixed }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var snaps []core.Snapshot
	for rank := 0; rank < 4; rank++ {
		node := "node-a"
		if rank >= 2 {
			node = "node-b"
		}
		snap := testSnapshot(rank, node)
		snaps = append(snaps, snap)
		frame, err := EncodeSnapshotFrame(&SnapshotMsg{
			Origin:   Origin{Job: "jobX", Node: node, Rank: rank},
			Snapshot: snap,
			CommRow:  map[int]uint64{(rank + 1) % 4: uint64(1000 * (rank + 1))},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp := postFrames(t, ts.URL, rank%2 == 0, frame); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("ingest rank %d: %s", rank, resp.Status)
		}
	}

	want, err := report.Aggregate(snaps, core.EvalThresholds{})
	if err != nil {
		t.Fatal(err)
	}
	var got report.JobSummary
	getJSON(t, ts.URL+"/api/job/jobX/summary", &got)
	assertSummariesEqual(t, want, &got)

	// Heatmap reflects each rank's comm row.
	var hm HeatmapResponse
	getJSON(t, ts.URL+"/api/job/jobX/heatmap", &hm)
	if hm.Ranks != 4 || hm.Bytes[0][1] != 1000 || hm.Bytes[3][0] != 4000 {
		t.Fatalf("heatmap: %+v", hm)
	}

	// Jobs listing.
	var jobs []JobInfo
	getJSON(t, ts.URL+"/api/jobs", &jobs)
	if len(jobs) != 1 || jobs[0].Job != "jobX" || jobs[0].Ranks != 4 || jobs[0].Nodes != 2 || jobs[0].Snapshots != 4 {
		t.Fatalf("jobs: %+v", jobs)
	}

	// Unknown jobs 404.
	resp, err := http.Get(ts.URL + "/api/job/nope/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", resp.Status)
	}
}

func TestServerLiveMetrics(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	srv := NewServer(ServerConfig{Now: func() time.Time { return now }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	batch := &Batch{
		Origin: Origin{Job: "jobY", Node: "node-a", Rank: 0},
		Seq:    0,
		Events: []export.Event{
			lwpEvent(1, 100, 42),
			lwpEvent(1, 101, 8),
			{Kind: export.EventHWT, TimeSec: 1, HWT: &export.HWTSample{TimeSec: 1, CPU: 3, IdlePct: 5, SysPct: 1, UserPct: 94}},
			{Kind: export.EventGPU, TimeSec: 1, GPU: &export.GPUSample{TimeSec: 1, GPU: 0, Metric: "Device Busy %", Value: 77.5}},
			{Kind: export.EventMem, TimeSec: 1, Mem: &export.MemSample{TimeSec: 1, TotalKB: 100, FreeKB: 50, ProcRSSKB: 10}},
		},
	}
	frame, err := EncodeBatchFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postFrames(t, ts.URL, true, frame); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ingest: %s", resp.Status)
	}
	// A later batch with a sequence gap: one batch was lost on the way.
	batch.Seq = 2
	now = now.Add(3 * time.Second)
	frame, err = EncodeBatchFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	postFrames(t, ts.URL, false, frame)
	now = now.Add(2 * time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkPrometheusText(t, string(text))
	for _, want := range []string{
		`zerosum_hwt_user_pct{cpu="3",job="jobY",node="node-a",rank="0"} 94`,
		`zerosum_lwp_nvctx_total{job="jobY",node="node-a",rank="0"} 50`,
		`zerosum_gpu_busy_pct{gpu="0",job="jobY",node="node-a",rank="0"} 77.5`,
		`zerosum_heartbeat_age_seconds{job="jobY",node="node-a",rank="0"} 2`,
		`zerosum_mem_free_kb{job="jobY",node="node-a",rank="0"} 50`,
		`zerosum_lost_batches_total 1`,
		`zerosum_ingest_batches_total 2`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestServerRejectsBadIngest(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Garbage body.
	resp, err := http.Post(ts.URL+"/api/ingest", "application/octet-stream", strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage: %s", resp.Status)
	}
	// Empty body.
	resp, err = http.Post(ts.URL+"/api/ingest", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty: %s", resp.Status)
	}
	if srv.ingestErrors.Load() != 2 {
		t.Fatalf("errors = %d", srv.ingestErrors.Load())
	}
}

// TestFNV1aMatchesHashFNV: the inline job-shard hash places every job where
// hash/fnv's FNV-1a did.
func TestFNV1aMatchesHashFNV(t *testing.T) {
	for _, name := range []string{"", "j", "job-42", "multijob-soak-017", "\xff\x00é"} {
		h := fnv.New32a()
		h.Write([]byte(name))
		if got, want := fnv1a(name), h.Sum32(); got != want {
			t.Errorf("fnv1a(%q) = %#x, hash/fnv says %#x", name, got, want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// assertSummariesEqual compares two JobSummary values through a JSON
// normalization (float64 JSON encoding round-trips exactly, so this is a
// faithful equality check that also covers the wire representation).
func assertSummariesEqual(t *testing.T, want, got *report.JobSummary) {
	t.Helper()
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("job summaries differ:\nserved %s\nwant   %s", gj, wj)
	}
}

var (
	promSeriesRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (?:[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf)|NaN)( [0-9]+)?$`)
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// checkPrometheusText validates the document against the text exposition
// format: every line is a comment or a well-formed series, every series'
// family is declared by a preceding TYPE line, and counters end in _total.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	n := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP") {
			if !promHelpRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("bad TYPE line: %q", line)
				continue
			}
			typed[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSeriesRe.MatchString(line) {
			t.Errorf("bad series line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		typ, ok := typed[name]
		if !ok {
			t.Errorf("series %q has no TYPE declaration", name)
		}
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q should end in _total", name)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no series in exposition")
	}
}
