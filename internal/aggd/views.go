package aggd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"zerosum/internal/core"
	"zerosum/internal/report"
)

// handleHealthz answers liveness probes: agents picking a failover target
// and operators wiring load balancers both ask this before trusting an
// endpoint with traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := fmt.Fprintf(w, "{\"status\":\"ok\",\"leaf\":%t}\n", s.fwd != nil); err != nil {
		s.writeErrors.Add(1)
	}
}

// snapshots returns the job's stored snapshots ordered by (rank, node) so
// the fold visits them in the same order a single-process aggregation of
// rank-sorted results would. The documents live in the TSDB store, which
// already yields them in that order.
func (s *Server) snapshots(job string) []core.Snapshot {
	var out []core.Snapshot
	s.store.EachSnapshot(job, func(node string, rank int, snap *core.Snapshot, row map[int]uint64) {
		out = append(out, *snap)
	})
	return out
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	js := s.lookupJob(id)
	if js == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	snaps := s.snapshots(id)
	if len(snaps) == 0 {
		http.Error(w, fmt.Sprintf("aggd: job %q has no snapshots yet", id), http.StatusNotFound)
		return
	}
	summary, err := report.Aggregate(snaps, s.cfg.Thresholds)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, summary)
}

// HeatmapResponse is the JSON shape of /api/job/{id}/heatmap: Bytes[dst][src]
// is what rank dst received from rank src (Figure 5's matrix).
type HeatmapResponse struct {
	Job   string     `json:"job"`
	Ranks int        `json:"ranks"`
	Bytes [][]uint64 `json:"bytes"`
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("metric") != "" {
		// TSDB view: series x time over an arbitrary window. The bare path
		// keeps serving the rank x rank communication matrix unchanged.
		s.handleTSDBHeatmap(w, r)
		return
	}
	id := r.PathValue("id")
	js := s.lookupJob(id)
	if js == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	size := 0
	rows := make(map[int]map[int]uint64)
	// Ranks that streamed batches but have not snapshotted yet still size
	// the matrix.
	js.eachRank(func(key rankKey, rs *rankState) {
		if key.rank+1 > size {
			size = key.rank + 1
		}
	})
	// Reading the snapshot documents after the store's lock drops is safe:
	// SetSnapshot replaces a rank's document wholesale, never mutates it.
	s.store.EachSnapshot(id, func(node string, rank int, snap *core.Snapshot, row map[int]uint64) {
		if rank+1 > size {
			size = rank + 1
		}
		if snap.Size > size {
			size = snap.Size
		}
		if row != nil {
			rows[rank] = row
			for src := range row {
				if src+1 > size {
					size = src + 1
				}
			}
		}
	})
	resp := HeatmapResponse{Job: id, Ranks: size, Bytes: make([][]uint64, size)}
	for dst := range resp.Bytes {
		resp.Bytes[dst] = make([]uint64, size)
		for src, v := range rows[dst] {
			resp.Bytes[dst][src] = v
		}
	}
	s.writeJSON(w, resp)
}

// JobInfo is one entry of /api/jobs. A leaf stores no snapshots, so it
// always reports Snapshots 0.
type JobInfo struct {
	Job       string `json:"job"`
	Nodes     int    `json:"nodes"`
	Ranks     int    `json:"ranks"`
	Snapshots int    `json:"snapshots"`
	Events    uint64 `json:"events"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var jobs []JobInfo
	s.eachJob(func(name string, js *jobStore) {
		info := JobInfo{Job: name}
		if s.store != nil {
			info.Snapshots = s.store.SnapshotCount(name)
		}
		nodes := map[string]bool{}
		//zerosum:locked rankShard.mu eachRank holds the shard lock around fn
		js.eachRank(func(key rankKey, rs *rankState) {
			info.Ranks++
			nodes[key.node] = true
			info.Events += rs.events
		})
		info.Nodes = len(nodes)
		jobs = append(jobs, info)
	})
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Job < jobs[j].Job })
	s.writeJSON(w, jobs)
}

// writeJSON renders a response body. Encoding failures here are almost
// always the client hanging up mid-response; the status line is already
// gone, so the error is counted (zerosum_response_write_errors_total)
// rather than reported.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.writeErrors.Add(1)
	}
}
