package aggd

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"zerosum/internal/tsdb"
)

// HTTP views over the embedded time-series store. Times in requests and
// responses are in seconds on the job's sample clock (the TimeSec domain
// the agents stream); the store's nanosecond clock stays internal.

// SeriesIdent names one series in a JSON response.
type SeriesIdent struct {
	Node string `json:"node"`
	Rank int    `json:"rank"`
	TID  int    `json:"tid"`
}

// QueryPoint is one (time, value) pair of a query response. Aggregated
// points carry the start of their step bucket.
type QueryPoint struct {
	TimeSec float64 `json:"t"`
	Value   float64 `json:"v"`
}

// QuerySeries is one series' slice of a query response.
type QuerySeries struct {
	SeriesIdent
	Points []QueryPoint `json:"points"`
}

// QueryResponse is the JSON shape of /api/job/{id}/query.
type QueryResponse struct {
	Job      string        `json:"job"`
	Metric   string        `json:"metric"`
	Agg      string        `json:"agg"`
	StartSec float64       `json:"start_sec"`
	EndSec   float64       `json:"end_sec"`
	StepSec  float64       `json:"step_sec"`
	Series   []QuerySeries `json:"series"`
}

// TSDBHeatmapResponse is the JSON shape of /api/job/{id}/heatmap?metric=…:
// a dense series x time-bucket matrix. Cells with no samples are null.
type TSDBHeatmapResponse struct {
	Job      string        `json:"job"`
	Metric   string        `json:"metric"`
	Agg      string        `json:"agg"`
	StartSec float64       `json:"start_sec"`
	EndSec   float64       `json:"end_sec"`
	StepSec  float64       `json:"step_sec"`
	Rows     []SeriesIdent `json:"rows"`
	Values   [][]*float64  `json:"values"`
}

// TopKEntry is one series' standing in a top-k response.
type TopKEntry struct {
	SeriesIdent
	Value float64 `json:"value"`
}

// TopKResponse is the JSON shape of /api/job/{id}/topk.
type TopKResponse struct {
	Job      string      `json:"job"`
	Metric   string      `json:"metric"`
	Agg      string      `json:"agg"`
	K        int         `json:"k"`
	StartSec float64     `json:"start_sec"`
	EndSec   float64     `json:"end_sec"`
	Entries  []TopKEntry `json:"entries"`
}

// queryParams parses the shared selector parameters (metric, node, rank,
// tid, start, end, step, agg). end defaults to just past the job's newest
// sample so "everything so far" needs no clock knowledge from the caller.
func (s *Server) queryParams(r *http.Request, job string) (tsdb.QueryOpts, error) {
	q := r.URL.Query()
	opts := tsdb.QueryOpts{Metric: q.Get("metric"), Node: q.Get("node"), Rank: -1, TID: -1}
	if opts.Metric == "" {
		return opts, fmt.Errorf("missing required parameter metric")
	}
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s %q", name, v)
			}
			*dst = n
		}
		return nil
	}
	if err := intParam("rank", &opts.Rank); err != nil {
		return opts, err
	}
	if err := intParam("tid", &opts.TID); err != nil {
		return opts, err
	}
	secParam := func(name string) (float64, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false, fmt.Errorf("bad %s %q", name, v)
		}
		return f, true, nil
	}
	start, _, err := secParam("start")
	if err != nil {
		return opts, err
	}
	opts.Start = tsdb.TimeToNanos(start)
	end, ok, err := secParam("end")
	if err != nil {
		return opts, err
	}
	if ok {
		opts.End = tsdb.TimeToNanos(end)
	} else {
		opts.End = s.store.MaxTime(job) + 1
	}
	step, ok, err := secParam("step")
	if err != nil {
		return opts, err
	}
	if ok {
		if step <= 0 {
			return opts, fmt.Errorf("bad step %q", q.Get("step"))
		}
		opts.Step = tsdb.TimeToNanos(step)
	}
	opts.Agg, err = tsdb.ParseAgg(q.Get("agg"))
	return opts, err
}

// The three views render straight from the store's results through
// jsonWriter. The response types above document the shape (and are what
// clients decode into); the renderers below must stay byte-for-byte what
// writeJSON would make of them, which the differential test pins.

// viewHeader opens the document with the members every view starts with.
func viewHeader(jw *jsonWriter, job string, opts tsdb.QueryOpts) {
	jw.open('{')
	jw.strField("job", job)
	jw.strField("metric", opts.Metric)
	jw.strField("agg", opts.Agg.String())
}

// viewWindow appends start_sec and end_sec.
func viewWindow(jw *jsonWriter, opts tsdb.QueryOpts) {
	jw.floatField("start_sec", tsdb.NanosToSec(opts.Start))
	jw.floatField("end_sec", tsdb.NanosToSec(opts.End))
}

// viewIdent appends a SeriesIdent's members to the open object.
func viewIdent(jw *jsonWriter, key tsdb.SeriesKey) {
	jw.strField("node", key.Node)
	jw.intField("rank", key.Rank)
	jw.intField("tid", key.TID)
}

// renderQuery is QueryResponse's body.
func renderQuery(job string, opts tsdb.QueryOpts, series []tsdb.SeriesResult) ([]byte, error) {
	points := 0
	for i := range series {
		points += len(series[i].Points)
	}
	// A point is two short floats on five indented lines, a series four
	// header lines: sized so typical bodies never regrow the buffer.
	jw := &jsonWriter{buf: make([]byte, 0, 256+96*len(series)+80*points)}
	viewHeader(jw, job, opts)
	viewWindow(jw, opts)
	jw.floatField("step_sec", tsdb.NanosToSec(opts.Step))
	jw.key("series")
	jw.open('[')
	for i := range series {
		sr := &series[i]
		jw.elem()
		jw.open('{')
		viewIdent(jw, sr.Key)
		jw.key("points")
		jw.open('[')
		for _, p := range sr.Points {
			jw.elem()
			jw.open('{')
			jw.floatField("t", p.Sec())
			jw.floatField("v", p.V)
			jw.close('}')
		}
		jw.close(']')
		jw.close('}')
	}
	jw.close(']')
	jw.close('}')
	return jw.finish()
}

// renderHeatmap is TSDBHeatmapResponse's body; cells without samples (NaN
// in the store's matrix) render as null.
func renderHeatmap(job string, opts tsdb.QueryOpts, hm *tsdb.HeatmapResult) ([]byte, error) {
	jw := &jsonWriter{buf: make([]byte, 0, 256+(96+32*int(hm.Buckets))*len(hm.Rows))}
	viewHeader(jw, job, opts)
	viewWindow(jw, opts)
	jw.floatField("step_sec", tsdb.NanosToSec(opts.Step))
	jw.key("rows")
	jw.open('[')
	for _, key := range hm.Rows {
		jw.elem()
		jw.open('{')
		viewIdent(jw, key)
		jw.close('}')
	}
	jw.close(']')
	jw.key("values")
	jw.open('[')
	for _, row := range hm.Values {
		jw.elem()
		jw.open('[')
		for _, v := range row {
			jw.elem()
			if math.IsNaN(v) {
				jw.null()
			} else {
				jw.float(v)
			}
		}
		jw.close(']')
	}
	jw.close(']')
	jw.close('}')
	return jw.finish()
}

// renderTopK is TopKResponse's body.
func renderTopK(job string, opts tsdb.QueryOpts, k int, top []tsdb.TopEntry) ([]byte, error) {
	jw := &jsonWriter{buf: make([]byte, 0, 256+128*len(top))}
	viewHeader(jw, job, opts)
	jw.intField("k", k)
	viewWindow(jw, opts)
	jw.key("entries")
	jw.open('[')
	for _, e := range top {
		jw.elem()
		jw.open('{')
		viewIdent(jw, e.Key)
		jw.floatField("value", e.Value)
		jw.close('}')
	}
	jw.close(']')
	jw.close('}')
	return jw.finish()
}

// writeRendered sends a body one of the renderers above produced. A render
// error means a value JSON cannot carry (an infinite or NaN sample); like a
// failed write it is counted, and the client gets the empty body writeJSON
// would have left it with.
func (s *Server) writeRendered(w http.ResponseWriter, body []byte, err error) {
	w.Header().Set("Content-Type", "application/json")
	if err == nil {
		_, err = w.Write(body)
	}
	if err != nil {
		s.writeErrors.Add(1)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.lookupJob(id) == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	opts, err := s.queryParams(r, id)
	if err != nil {
		http.Error(w, "aggd: "+err.Error(), http.StatusBadRequest)
		return
	}
	series, err := s.store.Query(id, opts)
	if err != nil {
		http.Error(w, "aggd: "+err.Error(), http.StatusBadRequest)
		return
	}
	body, err := renderQuery(id, opts, series)
	s.writeRendered(w, body, err)
}

// handleTSDBHeatmap serves /api/job/{id}/heatmap?metric=…, the windowed
// series x time view; the legacy rank x rank communication matrix stays on
// the bare path (handleHeatmap dispatches here when metric is present).
func (s *Server) handleTSDBHeatmap(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.lookupJob(id) == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	opts, err := s.queryParams(r, id)
	if err != nil {
		http.Error(w, "aggd: "+err.Error(), http.StatusBadRequest)
		return
	}
	if opts.Step <= 0 {
		// Default: carve the window into 60 buckets, mirroring a terminal-
		// width plot; explicit step always wins.
		opts.Step = (opts.End - opts.Start + 59) / 60
		if opts.Step <= 0 {
			opts.Step = 1
		}
	}
	hm, err := s.store.Heatmap(id, opts)
	if err != nil {
		http.Error(w, "aggd: "+err.Error(), http.StatusBadRequest)
		return
	}
	body, err := renderHeatmap(id, opts, hm)
	s.writeRendered(w, body, err)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.lookupJob(id) == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	opts, err := s.queryParams(r, id)
	if err != nil {
		http.Error(w, "aggd: "+err.Error(), http.StatusBadRequest)
		return
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		if k, err = strconv.Atoi(v); err != nil || k <= 0 {
			http.Error(w, fmt.Sprintf("aggd: bad k %q", v), http.StatusBadRequest)
			return
		}
	}
	top, err := s.store.TopK(id, opts, k)
	if err != nil {
		http.Error(w, "aggd: "+err.Error(), http.StatusBadRequest)
		return
	}
	body, err := renderTopK(id, opts, k, top)
	s.writeRendered(w, body, err)
}

// handleTSDBDump streams the job's entire compressed block set — the ZSTB
// blob UnmarshalBlocks reads back — for offline analysis or spill-to-disk.
func (s *Server) handleTSDBDump(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.lookupJob(id) == nil {
		http.Error(w, fmt.Sprintf("aggd: unknown job %q", id), http.StatusNotFound)
		return
	}
	blob, err := s.store.MarshalJob(id)
	if err != nil {
		// The job exists in the aggregator but holds no samples yet.
		http.Error(w, "aggd: "+err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	if _, err := w.Write(blob); err != nil {
		s.writeErrors.Add(1)
	}
}
