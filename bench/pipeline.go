package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/tsdb"
)

// hop is one server's front door: a loopback listener that counts what it
// accepts, reachable by a stable host name. Naming servers (instead of
// using their ephemeral addresses) keeps aggd.Router's consistent hash, and
// with it the rank → leaf placement, identical across runs.
type hop struct {
	host  string
	ln    net.Listener
	srv   *http.Server
	done  chan struct{} // closed when Serve returns
	bytes atomic.Int64  // request bytes read from accepted connections
	conns atomic.Int64
}

func (h *hop) url() string { return "http://" + h.host }

func (h *hop) Accept() (net.Conn, error) {
	c, err := h.ln.Accept()
	if err != nil {
		return nil, err
	}
	h.conns.Add(1)
	return &countedConn{Conn: c, n: &h.bytes}, nil
}
func (h *hop) Close() error   { return h.ln.Close() }
func (h *hop) Addr() net.Addr { return h.ln.Addr() }

type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// listen opens host's door; start begins serving on it.
func listen(host string) (*hop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", host, err)
	}
	return &hop{host: host, ln: ln, done: make(chan struct{})}, nil
}

func (h *hop) start(handler http.Handler) {
	h.srv = &http.Server{Handler: handler}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(h) // always http.ErrServerClosed after stop
	}()
}

func (h *hop) stop() {
	if h.srv == nil {
		_ = h.ln.Close()
		return
	}
	_ = h.srv.Close()
	<-h.done
}

// pipeline is the system under test: agents → (leaves →) root, every hop
// over loopback HTTP through one shared client, plus the streams the
// generator publishes into.
type pipeline struct {
	spec   *spec
	root   *aggd.Server
	leaves []*aggd.Server

	rootHop   *hop   // ingest at the root: hop 1 when flat, hop 2 in a tree
	leafHops  []*hop // hop 1 in a tree
	queryHop  *hop   // the reader's own door to the root, kept out of the wire count
	client    *http.Client
	transport *http.Transport

	targets   []string // where agents ship: the leaves, or the root
	jobs      []string
	streamers []*aggd.JobStreamer
	streams   []*export.Stream // jobs × ranks, job-major
	agents    []*aggd.Agent    // the agent behind each stream
	origins   []origin

	probes []*probe // one per rank of the first job, see probe

	agentObs *obs.Recorder // every agent's export stage; nil unless traced
}

// storeOptions gives every server's store the same geometry in ticks: blocks
// of 60 with rollup buckets of 5 (tsdb's defaults at the tape's 1 Hz) and a
// retention of 120. A fixed-time run against an unbounded store is not
// stationary — the heap grows throughout, collections get rarer and longer,
// queries walk ever longer chunks, and which second the run ends on decides
// its mean — and an always-on aggregator runs bounded. Counted in ticks,
// sample_node's 100 Hz store turns over like the others instead of growing
// with however many ticks fit the run.
func storeOptions(period time.Duration) tsdb.Options {
	return tsdb.Options{Block: 60 * period, Downsample: 5 * period, Retention: 120 * period}
}

type origin struct {
	job, node string
	rank      int
}

// startPipeline brings up servers and agents for sp. Nothing is published
// yet; the caller warms it up.
func startPipeline(sp *spec, node string, traced bool) (*pipeline, error) {
	p := &pipeline{spec: sp}
	var fwdObs *obs.Recorder
	if traced {
		p.agentObs, fwdObs = obs.NewRecorder(0), obs.NewRecorder(0)
	}
	// Every door is open before any server or agent exists, so the dialer's
	// name table is complete before the first goroutine can read it.
	addrs := map[string]string{}
	open := func(host string) (*hop, error) {
		h, err := listen(host)
		if err == nil {
			addrs[host] = h.ln.Addr().String()
		}
		return h, err
	}
	var err error
	if p.rootHop, err = open("root.bench"); err != nil {
		return nil, err
	}
	if p.queryHop, err = open("query.bench"); err != nil {
		p.stop()
		return nil, err
	}
	for i := 0; i < sp.leaves; i++ {
		h, err := open(fmt.Sprintf("leaf-%d.bench", i))
		if err != nil {
			p.stop()
			return nil, err
		}
		p.leafHops = append(p.leafHops, h)
	}
	dialer := &net.Dialer{}
	p.transport = &http.Transport{
		// One connection per core and hop: more would only measure the
		// scheduler multiplexing them onto the same CPUs.
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			real, ok := addrs[host]
			if !ok {
				return nil, fmt.Errorf("bench: unknown host %q", host)
			}
			return dialer.DialContext(ctx, network, real)
		},
	}
	p.client = &http.Client{Transport: p.transport, Timeout: 5 * time.Second}

	p.root = aggd.NewServer(aggd.ServerConfig{TSDB: storeOptions(sp.period())})
	p.rootHop.start(p.root.Handler())
	p.queryHop.start(p.root.Handler())
	for _, h := range p.leafHops {
		leaf := aggd.NewServer(aggd.ServerConfig{TSDB: storeOptions(sp.period()), Forward: &aggd.ForwardConfig{
			Upstream: p.rootHop.url(), LeafID: h.host, Epoch: 1,
			Client: p.client, Obs: fwdObs,
		}})
		p.leaves = append(p.leaves, leaf)
		h.start(leaf.Handler())
		p.targets = append(p.targets, h.url())
	}
	if len(p.targets) == 0 {
		p.targets = []string{p.rootHop.url()}
	}
	for j := 0; j < sp.jobs; j++ {
		p.addJob(fmt.Sprintf("job-%02d", j), node)
	}
	for r := 0; r < sp.ranks; r++ {
		pr := &probe{}
		p.streams[r].Subscribe(pr.observe)
		p.probes = append(p.probes, pr)
	}
	return p, nil
}

// addJob starts one agent per rank for a new job and returns the index of
// its first stream. Rank r lives on node r/8, like the tape's job; every job
// reuses the same (node, rank) identities, so only the job name keeps their
// streams apart downstream.
func (p *pipeline) addJob(job, node string) int {
	first := len(p.streams)
	js := aggd.NewJobStreamer(aggd.AgentConfig{
		URLs: p.targets, Job: job, Client: p.client,
		BatchSize: p.spec.batchSize, RingCap: p.spec.ringCap, Obs: p.agentObs,
	})
	p.jobs = append(p.jobs, job)
	p.streamers = append(p.streamers, js)
	for r := 0; r < p.spec.ranks; r++ {
		o := origin{job: job, node: fmt.Sprintf("%s-%04d", node, r/tapeRanks), rank: r}
		p.origins = append(p.origins, o)
		p.streams = append(p.streams, js.StreamFor(o.rank, o.node))
		p.agents = append(p.agents, js.Agent(o.rank))
	}
	return first
}

// backlog is how many events stream i's agent has accepted and neither
// shipped nor dropped: what sits in its ring or rides its current shipment.
func (p *pipeline) backlog(i int) uint64 {
	st := p.agents[i].Stats()
	return st.Enqueued - st.SentEvents - st.SendDrops - st.RingDrops
}

// visible is how many events the root has admitted.
func (p *pipeline) visible() uint64 { return p.root.Stats().IngestEvents }

// hopBytes returns request bytes accepted on hop 1 (agents → first server)
// and hop 2 (leaves → root).
func (p *pipeline) hopBytes() (hop1, hop2 int64) {
	if len(p.leafHops) == 0 {
		return p.rootHop.bytes.Load(), 0
	}
	for _, h := range p.leafHops {
		hop1 += h.bytes.Load()
	}
	return hop1, p.rootHop.bytes.Load()
}

func (p *pipeline) connsAccepted() (n int64) {
	for _, h := range append([]*hop{p.rootHop}, p.leafHops...) {
		n += h.conns.Load()
	}
	return n
}

// agentStats sums every agent's counters.
func (p *pipeline) agentStats() (total aggd.AgentStats) {
	for _, js := range p.streamers {
		st := js.Stats()
		total.Enqueued += st.Enqueued
		total.RingDrops += st.RingDrops
		total.SendDrops += st.SendDrops
		total.SentBatches += st.SentBatches
		total.SentEvents += st.SentEvents
		total.Retries += st.Retries
	}
	return total
}

// fwdStats sums the leaves' forwarder counters.
func (p *pipeline) fwdStats() (total aggd.FwdStats) {
	for _, l := range p.leaves {
		st := l.Forwarder().Stats()
		total.EnqueuedEvents += st.EnqueuedEvents
		total.AckedEvents += st.AckedEvents
		total.DroppedEvents += st.DroppedEvents
		total.PendingEvents += st.PendingEvents
		total.SentRollups += st.SentRollups
		total.DroppedRollups += st.DroppedRollups
		total.Retries += st.Retries
	}
	return total
}

// waitVisible blocks until the root has admitted want events, nudging the
// forwarders so nothing waits out a flush timer. False after ten seconds.
func (p *pipeline) waitVisible(want uint64) bool {
	for deadline := time.Now().Add(10 * time.Second); p.visible() < want; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
		for _, l := range p.leaves {
			l.Forwarder().Flush()
		}
	}
	return true
}

// drain closes the agents (their final flush) and waits for the root to
// admit want events. Whatever is still missing after that the books report.
func (p *pipeline) drain(want uint64) (closeDur, drainDur time.Duration, err error) {
	t0 := time.Now()
	for _, js := range p.streamers {
		err = errors.Join(err, js.Close())
	}
	t1 := time.Now()
	p.waitVisible(want)
	return t1.Sub(t0), time.Since(t1), err
}

// releaseAgents forgets the agents drain has closed, so that a collection
// frees their rings: client-side state that merely shares this process with
// the servers. The books must be checked before this: it drops the streams.
func (p *pipeline) releaseAgents() { p.streamers, p.streams, p.agents = nil, nil, nil }

// stop tears the pipeline down; every goroutine it started has exited when
// it returns. Safe on a half-built pipeline.
func (p *pipeline) stop() {
	for _, js := range p.streamers {
		_ = js.Close() // idempotent; drain already reported its error
	}
	for _, l := range p.leaves {
		_ = l.Close()
	}
	var wg sync.WaitGroup
	for _, h := range append([]*hop{p.rootHop, p.queryHop}, p.leafHops...) {
		if h != nil {
			wg.Add(1)
			go func(h *hop) { defer wg.Done(); h.stop() }(h)
		}
	}
	wg.Wait()
	if p.transport != nil {
		p.transport.CloseIdleConnections()
	}
}
