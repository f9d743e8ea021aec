package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/tsdb"
)

// What a dashboard polls.
const (
	qLatest  = iota // raw, one series per rank of the job, everything since the newest tick seen
	qRange          // stepped mean of hwt.user_pct over the trailing 10 ticks
	qTopK           // ten busiest LWPs over the same window
	qHeatmap        // lwp.user_pct series x time over the trailing 60 ticks
	numQueries
)

var queryNames = [numQueries]string{"latest", "range", "topk", "heatmap"}

// rotation is the order the reader asks in: the live tile between every two
// charts, as a dashboard refreshes. Query latency is reported per rotation
// (the mean of its six answers), so that every sample weighs every kind of
// query the same and the median does not sit on the edge between a cheap
// kind and a dear one.
var rotation = []int{qLatest, qRange, qLatest, qTopK, qLatest, qHeatmap}

// reader is the one dashboard client: it walks the rotation on a single
// connection to the root, times every query, and turns each `latest` answer
// into a freshness sample through the probe.
type reader struct {
	client *http.Client
	base   string
	target origin  // rank 0 of the first job; that job is the one the reader watches
	wide   bool    // range over every rank, not just the target's node
	period float64 // seconds of sample clock per tick
	every  time.Duration
	probes []*probe // by rank of the watched job
	tr     *tracer

	newest float64 // newest tick every rank of the job has shown, sample-clock seconds
	found  bool    // the job has answered at least once

	lat    [numQueries]samples // ms
	rounds samples             // ms: mean latency of each completed rotation's queries
	round  samples             // the rotation in progress
	fresh  samples             // ms
	issued uint64
	failed uint64
	reason string
	body   bytes.Buffer
}

func newReader(p *pipeline, sp *spec, tr *tracer) *reader {
	t := p.transport.Clone()
	t.MaxConnsPerHost = 1
	return &reader{
		client: &http.Client{Transport: t, Timeout: 10 * time.Second},
		base:   p.queryHop.url(), target: p.origins[0], wide: sp.wideRange,
		period: sp.period().Seconds(), every: sp.readEvery, probes: p.probes, tr: tr,
	}
}

// start runs the reader on its own goroutine; the returned function stops
// it and waits for it to exit.
func (rd *reader) start() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rd.client.CloseIdleConnections()
		next := time.Now()
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
			}
			q := rotation[i%len(rotation)]
			if !rd.found {
				q = qLatest // nothing to window over until the job answers
			}
			rd.query(q)
			// At most one query per interval, and no catching up after a
			// slow one: a dashboard that fell behind does not burst.
			if next = next.Add(rd.every); next.Before(time.Now()) {
				next = time.Now()
			}
			select {
			case <-quit:
				return
			case <-time.After(time.Until(next)):
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		if len(rd.rounds) == 0 && len(rd.round) > 0 {
			// Too short a run for one whole rotation: rate what there is.
			rd.rounds.add(rd.round.sum() / float64(len(rd.round)))
		}
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (rd *reader) url(q int) string {
	v := url.Values{}
	back := func(ticks float64) {
		start := rd.newest - ticks*rd.period
		if start < 0 {
			start = 0
		}
		v.Set("start", ftoa(start))
		v.Set("end", ftoa(rd.newest+rd.period))
	}
	path := "query"
	switch q {
	case qLatest:
		v.Set("metric", "mem.free_kb")
		v.Set("start", ftoa(rd.newest))
	case qRange:
		v.Set("metric", "hwt.user_pct")
		v.Set("agg", "mean")
		v.Set("step", ftoa(5*rd.period))
		if !rd.wide {
			v.Set("node", rd.target.node)
		}
		back(10)
	case qTopK:
		path = "topk"
		v.Set("metric", "lwp.user_pct")
		v.Set("agg", "mean")
		v.Set("k", "10")
		back(10)
	case qHeatmap:
		path = "heatmap"
		v.Set("metric", "lwp.user_pct")
		back(60)
	}
	return fmt.Sprintf("%s/api/job/%s/%s?%s", rd.base, rd.target.job, path, v.Encode())
}

// query issues one request and books its outcome.
func (rd *reader) query(q int) {
	t0 := time.Now()
	resp, err := rd.client.Get(rd.url(q))
	if err != nil {
		rd.issued++
		rd.miss("%s: %v", queryNames[q], err)
		return
	}
	rd.body.Reset()
	_, err = io.Copy(&rd.body, resp.Body)
	_ = resp.Body.Close()
	t1 := time.Now()
	var qr aggd.QueryResponse
	if q == qLatest && err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(rd.body.Bytes(), &qr)
	}
	if !rd.found && (resp.StatusCode == http.StatusNotFound || len(qr.Series) < len(rd.probes)) {
		return // not every rank's first batch has landed yet: not a query
	}
	rd.issued++
	if err != nil || resp.StatusCode != http.StatusOK {
		rd.miss("%s: status %d, error %v", queryNames[q], resp.StatusCode, err)
		return
	}
	rd.found = true
	rd.lat[q].add(float64(t1.Sub(t0)) / 1e6)
	if rd.round.add(float64(t1.Sub(t0)) / 1e6); len(rd.round) == len(rotation) {
		rd.rounds.add(rd.round.sum() / float64(len(rotation)))
		rd.round = rd.round[:0]
	}
	rd.tr.add("query."+queryNames[q], t0, t1)
	if q != qLatest {
		// The windowed answers are checked against the tape once, after
		// the run; here a well-formed answer for this job is enough.
		head := rd.body.Bytes()[:min(64, rd.body.Len())]
		if !bytes.Contains(head, []byte(`"job": "`+rd.target.job+`"`)) {
			rd.miss("%s: unexpected body %.64q", queryNames[q], head)
		}
		return
	}
	if len(qr.Series) != len(rd.probes) {
		rd.miss("latest: want one series per rank (%d), got %d", len(rd.probes), len(qr.Series))
		return
	}
	// One freshness sample: how stale the root's newest tick is, averaged
	// over the job's ranks.
	var stale time.Duration
	oldest := math.Inf(1)
	for _, s := range qr.Series {
		if len(s.Points) == 0 || s.Rank < 0 || s.Rank >= len(rd.probes) {
			rd.miss("latest: rank %d answered with %d points", s.Rank, len(s.Points))
			return
		}
		newest := s.Points[len(s.Points)-1].TimeSec
		at, ok := rd.probes[s.Rank].published(tsdb.TimeToNanos(newest))
		if !ok {
			rd.miss("latest: root returned tick %v of rank %d, which was never published", newest, s.Rank)
			return
		}
		stale += t1.Sub(at)
		oldest = min(oldest, newest)
	}
	if oldest < rd.newest {
		rd.miss("latest: newest tick went back from %v to %v", rd.newest, oldest)
		return
	}
	rd.newest = oldest
	rd.fresh.add(float64(stale) / float64(len(qr.Series)) / 1e6)
}

func (rd *reader) miss(format string, args ...any) {
	rd.failed++
	if rd.reason == "" {
		rd.reason = fmt.Sprintf(format, args...)
	}
}
