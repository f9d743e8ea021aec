// Command zsaggd is the ZeroSum cluster aggregation daemon: the networked
// data service the paper's export path anticipates (§3.6, §6). Per-process
// node agents (aggd.Agent, wired by zsrun -agg or the zerosum library) POST
// framed sample batches and end-of-run snapshots to it; zsaggd maintains
// per-job sharded in-memory stores, folds snapshots through the same
// report.Aggregate used in-process, and serves the allocation-wide views:
//
//	GET /metrics                 Prometheus text exposition (per-HWT
//	                             utilization, nvctx, GPU busy %, heartbeats)
//	GET /api/jobs                known jobs
//	GET /api/job/<id>/summary    aggregated JobSummary (JSON)
//	GET /api/job/<id>/heatmap    rank x rank received-bytes matrix (JSON);
//	                             with ?metric= a TSDB series x time matrix
//	GET /api/job/<id>/query      TSDB range query (raw or stepped+aggregated)
//	GET /api/job/<id>/topk       top-k series by one aggregate over a window
//	GET /api/job/<id>/tsdb       compressed block-set dump (ZSTB blob)
//
// Every admitted sample also lands in an embedded Gorilla-compressed
// time-series store (see docs/tsdb.md); -block and -retention tune it.
//
// Daemons compose into an aggregation tree (docs/aggregation.md): a leaf
// started with -upstream is a relay that forwards everything it
// admits to its parent as rollup frames and stores nothing, agents spread
// over the leaf tier by consistent hash, and the root alone stores and
// answers the job-wide queries, exactly as a flat deployment would. A leaf
// serves ingest, /healthz, /metrics, /api/jobs and /debug/obs. -restore
// warms a fresh root's TSDB from ZSTB dumps and serves their jobs' TSDB
// reads; a restored job has no snapshots, so its /summary stays 404 until
// its ranks report again.
//
// Usage:
//
//	zsaggd [-addr :9100] [-nvctx-per-sec N] [-retention 0] [-block 1m] [-v]
//	       [-upstream http://root:9100 [-leaf-id name]]
//	       [-restore dump1.zstb,...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/tsdb"
)

func main() {
	var (
		addr      = flag.String("addr", ":9100", "listen address")
		nvctx     = flag.Float64("nvctx-per-sec", 0, "contention threshold folded into job summaries (0 = default)")
		verbose   = flag.Bool("v", false, "log every request")
		pprofSrv  = flag.Bool("pprof", false, "also serve /debug/pprof profiling endpoints")
		block     = flag.Duration("block", tsdb.DefaultBlock, "TSDB block width: head chunks seal on this sample-clock boundary (root only)")
		retention = flag.Duration("retention", 0, "drop sealed TSDB chunks older than this behind each job's newest sample, 0 = keep everything (root only)")
		upstream  = flag.String("upstream", "", "parent aggregator base URL: run as a leaf that forwards admitted data there as rollup frames")
		leafID    = flag.String("leaf-id", "", "leaf identity stamped on rollup frames (default: the listen address)")
		restore   = flag.String("restore", "", "comma-separated ZSTB dump files imported into the TSDB at startup (root only)")
	)
	flag.Parse()

	if *restore != "" && *upstream != "" {
		fmt.Fprintln(os.Stderr, "zsaggd: -restore needs a root: a leaf relays and has no TSDB to restore into")
		os.Exit(2)
	}
	cfg := aggd.ServerConfig{
		Thresholds: core.EvalThresholds{NVCtxPerSec: *nvctx},
		TSDB: tsdb.Options{
			Block:     *block,
			Retention: *retention,
		},
	}
	if *upstream != "" {
		id := *leafID
		if id == "" {
			id = *addr
		}
		cfg.Forward = &aggd.ForwardConfig{
			Upstream: *upstream,
			LeafID:   id,
			// Wall-clock nanos make every restart a fresh incarnation, so
			// replays from the previous one dedup at the parent.
			Epoch: uint64(time.Now().UnixNano()),
		}
	}
	srv := aggd.NewServer(cfg)
	if *restore != "" {
		if err := restoreDumps(srv, *restore); err != nil {
			fmt.Fprintln(os.Stderr, "zsaggd:", err)
			os.Exit(1)
		}
	}
	var handler http.Handler = srv.Handler()
	if *pprofSrv {
		// /debug/obs is always on (it's cheap JSON); CPU/heap profiling of
		// the daemon itself is opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	if *verbose {
		handler = logRequests(handler)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	if *retention > 0 && srv.TSDB() != nil {
		// Appends already retire expired chunks as they seal; the ticker
		// covers series that stopped appending (a dead rank's history still
		// ages out against the job's advancing clock).
		go func() {
			tick := time.NewTicker(*block)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					srv.TSDB().EnforceRetention()
				}
			}
		}()
	}

	role := "root"
	if *upstream != "" {
		role = fmt.Sprintf("leaf -> %s", *upstream)
	}
	log.Printf("zsaggd: listening on %s as %s (POST /api/ingest, GET /metrics)", *addr, role)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "zsaggd:", err)
		os.Exit(1)
	}
	// Flush any rollups still buffered in the leaf forwarder before exiting.
	if err := srv.Close(); err != nil {
		log.Printf("zsaggd: close: %v", err)
	}
	log.Print("zsaggd: shut down")
}

// restoreDumps imports comma-separated ZSTB dump files into the server
// before it starts serving.
func restoreDumps(srv *aggd.Server, list string) error {
	for _, path := range strings.Split(list, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("restore %s: %w", path, err)
		}
		job, n, err := srv.Restore(data)
		if err != nil {
			return fmt.Errorf("restore %s: %w", path, err)
		}
		log.Printf("zsaggd: restored %d samples of job %q from %s", n, job, path)
	}
	return nil
}

func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
