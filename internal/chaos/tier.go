package chaos

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"zerosum/internal/aggd"
)

// build starts the pipeline under test: a root and, under it, p.Leaves leaf
// aggregators forwarding pre-merged rollups to it, which agents reach by
// consistent hash. With zero leaves the agents home on the root itself — a
// flat deployment is the same pipeline minus a hop, so one builder, one
// fault schedule and one set of books serve both. The root comes first
// (leaves need its address); leaf kills are staggered across the feed, each
// with a revive no earlier than a window later.
func (e *engine) build() error {
	e.root = aggd.NewServer(aggd.ServerConfig{})
	var err error
	if e.rootFront, err = startFrontend(e.root.Handler(), e.injector()); err != nil {
		return err
	}
	var urls []string
	stagger := max(e.p.Rounds/(e.p.LeafKills+2), 2)
	for i := 0; i < e.p.Leaves; i++ {
		lh := &leafHost{id: fmt.Sprintf("leaf-%d", i), epoch: 1}
		if i < e.p.LeafKills {
			lh.killAt = (i + 1) * stagger
			lh.reviveAt = lh.killAt + max(e.p.Rounds/10, 4)
		}
		lh.srv = e.newLeaf(lh)
		if lh.front, err = startFrontend(lh.srv.Handler(), e.injector()); err != nil {
			_ = lh.srv.Close()
			return err
		}
		lh.url = "http://" + lh.front.addr
		e.leaves = append(e.leaves, lh)
		urls = append(urls, lh.url)
	}
	if e.p.Leaves == 0 {
		urls = []string{"http://" + e.rootFront.addr}
	}
	e.router, err = aggd.NewRouter(urls)
	return err
}

// injector forks one front-end's or stream's own fault schedule off master.
func (e *engine) injector() *Injector {
	inj := NewInjector(e.master.Fork(), e.p.Profile)
	e.injectors = append(e.injectors, inj)
	return inj
}

// newLeaf builds lh's next server incarnation, forwarding under lh.epoch.
func (e *engine) newLeaf(lh *leafHost) *aggd.Server {
	return aggd.NewServer(aggd.ServerConfig{Forward: &aggd.ForwardConfig{
		Upstream:      "http://" + e.rootFront.addr,
		LeafID:        lh.id,
		Epoch:         lh.epoch,
		FlushInterval: 2 * time.Millisecond,
		MaxRetries:    2,
		BackoffBase:   time.Millisecond,
		MaxBackoff:    8 * time.Millisecond,
		DisableGzip:   true,
		Client:        &http.Client{Transport: e.transport, Timeout: time.Second},
	}})
}

// close stops whatever build and the feed started (all of it idempotent) so
// the leak check passes; jobs are only still open after an early error.
func (e *engine) close() {
	e.closeJobs(e.p.Rounds)
	for _, lh := range e.leaves {
		lh.front.stop()
		_ = lh.srv.Close()
	}
	if e.rootFront != nil {
		e.rootFront.stop()
	}
	e.transport.CloseIdleConnections()
}

// stream is one (job, rank) agent across incarnations: an agent kill
// restarts it as the next epoch, closing its job retires it for good.
type stream struct {
	job   *JobBooks
	rank  int
	epoch uint64
	inj   *Injector
	agent *aggd.Agent // nil while no incarnation is open
}

func (s *stream) String() string { return fmt.Sprintf("%s/%d", s.job.ID, s.rank) }

// retire folds the stopped incarnation's counters into its job's books.
func (s *stream) retire() {
	addCounters(&s.job.Agent, s.agent.Stats())
	s.agent = nil
}

// agent starts s's agent for its current epoch, homed by the router with
// the full ring as failover order, its shipments subject to s.inj.
func (e *engine) agent(s *stream, ringCap int) (*aggd.Agent, error) {
	node := s.job.Nodes[s.rank]
	return aggd.NewAgent(aggd.AgentConfig{
		URLs:          e.router.Order(node, s.rank),
		Job:           s.job.ID,
		Node:          node,
		Rank:          s.rank,
		Epoch:         s.epoch,
		RingCap:       ringCap,
		BatchSize:     16,
		FlushInterval: time.Millisecond,
		// Few enough retries that a partition window can defeat a batch
		// outright, producing the real sequence gaps (and gap accounting)
		// the server must absorb.
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		// Uncompressed bodies so injected corruption lands on the frame
		// bytes the CRC guards, not on a gzip envelope.
		DisableGzip: true,
		Client: &http.Client{
			Transport: &Transport{Inner: e.transport, Inj: s.inj},
			Timeout:   time.Second,
		},
	})
}

// restart opens s's next incarnation, crash-killing the current one if
// there is one. A new epoch per incarnation: sequence numbers restart
// without colliding with the dead incarnation's.
func (e *engine) restart(s *stream, round int) (err error) {
	if s.agent != nil {
		s.agent.Kill()
		s.retire()
		e.p.Logf("killed stream %s at round %d (epoch %d)", s, round, s.epoch)
		s.epoch++
	}
	s.agent, err = e.agent(s, e.p.RingCap)
	return err
}

// leafHost is one leaf position in the tree: a stable address and leaf ID,
// and the succession of server incarnations that lived there. A kill
// discards the live incarnation (its per-origin dedup state and forward
// buffer die with it) but keeps the pointer so the audit can close the
// books over every incarnation's counters.
type leafHost struct {
	id    string
	url   string
	front *frontend
	epoch uint64
	srv   *aggd.Server
	past  []*aggd.Server
	// The scheduled fault rounds; killAt 0 means no kill, or none left.
	killAt, reviveAt int
	// homed is the set of streams whose Home() was this leaf at the moment
	// it was killed: the ones its revive waits on.
	homed []*stream
}

// stuck lists the streams captured at the kill that still home on the dead
// address. Streams whose jobs closed since are ignored: a closed agent's
// Home can never move again, and its undelivered remainder is already
// settled as send drops in its job's books. Empty for an unowned leaf, so
// it revives on schedule.
func (lh *leafHost) stuck() (ids []string) {
	for _, s := range lh.homed {
		if s.agent != nil && s.agent.Home() == lh.url {
			ids = append(ids, s.String())
		}
	}
	return ids
}

// awaitRehome is the revive gate at the end of the feed: it blocks until no
// homed stream is stuck on the dead leaf. Their rings hold the events fed
// since the kill, so the flush ticker keeps attempting shipments into the
// dead address until the failover fires — no new events are needed. The
// deadline turns a wedged failover into a loud assertion, not a hang: on
// timeout the error names the leaf and the streams that never left.
//
//zerosum:wallclock the gate polls live agents' failover on the host clock
func (lh *leafHost) awaitRehome(timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(500 * time.Microsecond) {
		ids := lh.stuck()
		if len(ids) == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("%s revived after %v with %d stream(s) still homed on its dead address %s: %v",
				lh.id, timeout, len(ids), lh.url, ids)
		}
	}
}

// revive restarts lh on its old address as a fresh incarnation — new
// dedup state, bumped forwarder epoch: the crash model for a leaf daemon
// whose process is replaced rather than merely reconnected.
func (e *engine) revive(lh *leafHost, round int) error {
	lh.epoch++
	lh.srv = e.newLeaf(lh)
	lh.front.handler = lh.srv.Handler()
	if err := lh.front.restart(); err != nil {
		return fmt.Errorf("chaos: revive %s: %w", lh.id, err)
	}
	e.dead, lh.homed = nil, nil
	e.p.Logf("revived %s at round %d as epoch %d", lh.id, round, lh.epoch)
	return nil
}

// frontend is an aggregator's restartable HTTP front-end: the store (the
// aggd.Server) survives a restart, the listener and every live connection
// do not — the crash model for a supervised collector daemon.
type frontend struct {
	handler http.Handler
	inj     *Injector
	addr    string

	hs        *http.Server
	servedone chan struct{}
}

func startFrontend(h http.Handler, inj *Injector) (*frontend, error) {
	f := &frontend{handler: h, inj: inj, addr: "127.0.0.1:0"}
	if err := f.start(); err != nil {
		return nil, err
	}
	return f, nil
}

// start binds the front-end's address — any free loopback port the first
// time, the same one ever after, so agents reconnect without
// reconfiguration — and serves on it.
//
//zerosum:wallclock rebinding races the kernel releasing the port
func (f *frontend) start() error {
	ln, err := net.Listen("tcp", f.addr)
	for attempt := 0; err != nil && attempt < 200; attempt++ {
		time.Sleep(2 * time.Millisecond)
		ln, err = net.Listen("tcp", f.addr)
	}
	if err != nil {
		return fmt.Errorf("chaos: frontend listen: %w", err)
	}
	f.addr = ln.Addr().String()
	hs := &http.Server{Handler: f.handler}
	servedone := make(chan struct{})
	go func() {
		_ = hs.Serve(&FlakyListener{Listener: ln, Inj: f.inj})
		close(servedone)
	}()
	f.hs, f.servedone = hs, servedone
	return nil
}

// restart hard-stops the front-end (in-flight requests die with their
// connections) and brings it back on the same address.
func (f *frontend) restart() error {
	f.stop()
	return f.start()
}

func (f *frontend) stop() {
	_ = f.hs.Close()
	<-f.servedone
}

// cleanClient bypasses the fault layer and keeps no idle connections, so
// post-run API reads cannot trip the FD leak check.
var cleanClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// get fetches one API path from the front-end over the clean client.
func (f *frontend) get(path string) ([]byte, error) {
	resp, err := cleanClient.Get("http://" + f.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}
