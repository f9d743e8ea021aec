// Command zsrun is an srun-style front end for the simulated testbed: it
// translates launcher flags into a simulated job on a preset machine, runs
// the selected proxy application under ZeroSum monitoring, and writes the
// per-rank reports and CSV logs the paper's tool produces.
//
// Usage:
//
//	zsrun -n 8 -c 7 [-machine frontier] [-app miniqmc|pic|synthetic]
//	      [-threads-per-core 1] [-gpus-per-task 0] [-gpu-bind closest]
//	      [-omp-num-threads N] [-omp-proc-bind spread] [-omp-places cores]
//	      [-steps 96] [-no-monitor] [-logdir DIR] [-seed 1]
//
// With -logdir, each monitored rank logs its samples to zerosum.rankNNN.zsbp
// as wire frames while the job runs; its .lwp/.hwt/.gpu/.mem CSVs are
// rendered from that file when the job ends, beside its report (.log).
// -logdir needs the monitor, so zsrun refuses it together with -no-monitor.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"

	"zerosum/internal/advisor"
	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/openmp"
	"zerosum/internal/report"
	"zerosum/internal/sim"
	"zerosum/internal/slurm"
	"zerosum/internal/topology"
	"zerosum/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 8, "number of MPI ranks")
		c        = flag.Int("c", 0, "cores per task (srun -c)")
		tpc      = flag.Int("threads-per-core", 1, "--threads-per-core")
		gpus     = flag.Int("gpus-per-task", 0, "--gpus-per-task")
		gpuBind  = flag.String("gpu-bind", "closest", "--gpu-bind: closest or none")
		machine  = flag.String("machine", "frontier", "machine preset")
		nodes    = flag.Int("nodes", 0, "node count (0 = auto)")
		app      = flag.String("app", "miniqmc", "workload: miniqmc, pic or synthetic")
		steps    = flag.Int("steps", 0, "override workload step count")
		ompN     = flag.Int("omp-num-threads", 0, "OMP_NUM_THREADS")
		ompBind  = flag.String("omp-proc-bind", "", "OMP_PROC_BIND: false, master, close, spread")
		ompPlace = flag.String("omp-places", "", "OMP_PLACES: threads, cores, sockets")
		noMon    = flag.Bool("no-monitor", false, "run without the ZeroSum thread")
		period   = flag.Duration("period", 0, "sampling period (default 1s)")
		logdir   = flag.String("logdir", "", "write per-rank reports, .zsbp frame logs (read with zsreport -staged) and the CSVs rendered from them here")
		agg      = flag.String("agg", "", "stream samples to zsaggd aggregator(s): one base URL, or a comma-separated leaf-tier list routed by consistent hash with failover")
		jobName  = flag.String("job", "zsrun", "job id used when streaming to -agg and in .zsbp frame origins")
		trace    = flag.String("trace", "", "write the node-0 scheduling trace (Chrome trace JSON) here")
		advise   = flag.Bool("advise", false, "run the configuration advisor on the rank-0 report")
		summary  = flag.Bool("summary", true, "print the job-wide aggregated summary")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		verbose  = flag.Bool("v", false, "print every rank's report (default: rank 0 only)")

		scenarioName  = flag.String("scenario", "", "run a multi-job scenario instead of one app: preset name (smoke, contention, fleet) or JSON config path")
		scenarioCSV   = flag.String("scenario-csv", "", "with -scenario: write the allocation-history CSV here")
		scenarioDry   = flag.Bool("scenario-dry", false, "with -scenario: schedule and report fairness only, don't execute the jobs")
		scenarioScale = flag.Float64("scenario-scale", 0, "with -scenario: simulated-runtime fraction of each job's scheduled duration (default 0.05)")

		stallTicks = flag.Int("stall-ticks", 0, "flag a thread stalled after N samples with no progress (0 = off)")
		budget     = flag.Float64("budget", 0, "monitor self-overhead budget in percent; exceeding it degrades sampling (0 = off)")
		selfRep    = flag.Bool("self-report", false, "include the monitor self-report section in reports")
		obsDump    = flag.String("obs-dump", "", "write the monitor's internal-tracing dump (JSON) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/obs and /debug/pprof on this address while the job runs")
	)
	flag.Parse()
	if *noMon && *logdir != "" {
		// Without the monitor no rank has samples or a report to log.
		fatal(fmt.Errorf("-logdir needs the monitor: it cannot be combined with -no-monitor"))
	}

	if *scenarioName != "" {
		// Scenario fleets run many jobs back to back, so the node preset
		// defaults to the small laptop machine unless -machine was given
		// explicitly.
		scenMachine := "laptop"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "machine" {
				scenMachine = *machine
			}
		})
		var aggURLs []string
		for _, u := range strings.Split(*agg, ",") {
			if u = strings.TrimSpace(u); u != "" {
				aggURLs = append(aggURLs, u)
			}
		}
		mc := workload.MonitorConfig{Enabled: !*noMon, CPU: -1}
		if *period > 0 {
			mc.Period = sim.Time(period.Nanoseconds())
		}
		mc.StallTicks = *stallTicks
		runScenarioMode(scenarioOpts{
			name:      *scenarioName,
			csvPath:   *scenarioCSV,
			timeScale: *scenarioScale,
			dryRun:    *scenarioDry,
			machine:   scenMachine,
			seed:      *seed,
			noMonitor: *noMon,
			aggURLs:   aggURLs,
			monitor:   mc,
			verbose:   *verbose,
		})
		return
	}

	mk := func() *topology.Machine {
		m, err := topology.ByName(*machine)
		if err != nil {
			fatal(err)
		}
		return m
	}
	env, err := openmp.ParseEnv(itoa(*ompN), *ompBind, *ompPlace)
	if err != nil {
		fatal(err)
	}
	bind := slurm.GPUBindClosest
	if *gpuBind == "none" {
		bind = slurm.GPUBindNone
	}

	var job workload.App
	switch *app {
	case "miniqmc":
		mq := workload.DefaultMiniQMC()
		if env.NumThreads > 0 {
			mq.Threads = env.NumThreads
		}
		if *steps > 0 {
			mq.Steps = *steps
		}
		job = mq
	case "pic":
		pic := workload.DefaultPICHalo()
		if *steps > 0 {
			pic.Steps = *steps
		}
		job = pic
	case "synthetic":
		job = &workload.Synthetic{Threads: env.NumThreads, Work: 500 * sim.Millisecond, Repeats: maxInt(*steps, 1)}
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	mc := workload.MonitorConfig{Enabled: !*noMon, CPU: -1, Heartbeat: os.Stderr, HeartbeatEvery: 10}
	if *period > 0 {
		mc.Period = sim.Time(period.Nanoseconds())
	}
	mc.StallTicks = *stallTicks
	mc.Budget = obs.Budget{Enabled: *budget > 0, MaxPct: *budget}
	rec := obs.NewRecorder(0)
	if !*noMon {
		mc.Obs = rec
	}
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /debug/obs", obs.Handler("zsrun", rec, nil))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//zerosum:detached debug server lives for the whole process; the OS reaps it at exit
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "zsrun: debug server:", err)
			}
		}()
	}
	// Per-rank streams feed optional sinks: .zsbp files of wire frames (the
	// ADIOS2-style output path, one frame per sampling instant, and the
	// rank's only record of its samples) and/or an aggd node agent shipping
	// batches to a zsaggd aggregator (the LDMS-style networked path). Both
	// write the same frame format.
	type rankLog struct {
		file *os.File
		log  *aggd.FrameLog
	}
	rankLogs := map[int]*rankLog{}
	wantLogs := *logdir != "" && !*noMon
	var streamer *aggd.JobStreamer
	var aggURLs []string
	if *agg != "" && !*noMon {
		// A comma-separated -agg names a leaf tier: each rank's agent homes
		// on its consistent-hash leaf and fails over to siblings.
		for _, u := range strings.Split(*agg, ",") {
			if u = strings.TrimSpace(u); u != "" {
				aggURLs = append(aggURLs, u)
			}
		}
		if len(aggURLs) == 0 {
			fatal(fmt.Errorf("-agg %q names no endpoints", *agg))
		}
		streamer = aggd.NewJobStreamer(aggd.AgentConfig{URL: aggURLs[0], URLs: aggURLs, Job: *jobName})
	}
	if wantLogs || streamer != nil {
		if wantLogs {
			if err := os.MkdirAll(*logdir, 0o755); err != nil {
				fatal(err)
			}
		}
		mc.StreamFor = func(rank int, node string) *export.Stream {
			stream := &export.Stream{}
			if streamer != nil {
				stream = streamer.StreamFor(rank, node)
			}
			if wantLogs {
				f, err := os.Create(rankBase(*logdir, rank) + ".zsbp")
				if err != nil {
					fatal(err)
				}
				fl := aggd.NewFrameLog(f, aggd.Origin{Job: *jobName, Node: node, Rank: rank})
				rankLogs[rank] = &rankLog{file: f, log: fl}
				stream.Subscribe(fl.Subscriber())
			}
			return stream
		}
	}
	cfg := workload.Config{
		Machine: mk,
		Nodes:   *nodes,
		App:     job,
		Srun: slurm.Options{
			NTasks: *n, CoresPerTask: *c, ThreadsPerCore: *tpc,
			GPUsPerTask: *gpus, GPUBind: bind,
		},
		OMP:     env,
		Monitor: mc,
		Seed:    *seed,
	}
	if *trace != "" {
		cfg.TraceEvents = 2_000_000
	}
	fmt.Printf("# %s (simulated on %s)\n", cfg.Srun.CommandLine(*app), *machine)
	res, err := workload.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# job complete: %.3f s application runtime, %d ranks\n\n", res.WallSeconds, len(res.Ranks))

	for _, rr := range res.Ranks {
		if rr.Monitor == nil {
			continue
		}
		// Rank 0 writes the summary to stdout; all ranks write their
		// detailed report to a log file (paper §3.4).
		opts := report.Options{Contention: true, Memory: true, Self: *selfRep}
		if rr.Rank == 0 || *verbose {
			if err := report.Write(os.Stdout, rr.Snapshot, opts); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if *logdir != "" {
			if err := writeRankReport(*logdir, rr, opts); err != nil {
				fatal(err)
			}
		}
	}
	if !*noMon && *summary {
		var snaps []core.Snapshot
		for _, rr := range res.Ranks {
			snaps = append(snaps, rr.Snapshot)
		}
		if js, err := report.Aggregate(snaps, core.EvalThresholds{}); err == nil {
			if err := report.WriteJobSummary(os.Stdout, js); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	}
	if !*noMon && *advise {
		machine := mk()
		fmt.Println("Configuration advice (rank 0):")
		advice := advisor.Advise(advisor.Input{
			Snapshot: res.Ranks[0].Snapshot,
			Machine:  machine,
			Srun:     cfg.Srun,
			OMP:      env,
		})
		if len(advice) == 0 {
			fmt.Println("  launch configuration looks good")
		}
		for _, a := range advice {
			fmt.Println(a)
		}
		fmt.Println()
	}
	if streamer != nil {
		for _, rr := range res.Ranks {
			if rr.Monitor == nil {
				continue
			}
			if err := streamer.FinishRank(rr.Rank, rr.Snapshot, rr.Monitor.RecvBytes()); err != nil {
				fmt.Fprintf(os.Stderr, "zsrun: snapshot for rank %d: %v\n", rr.Rank, err)
			}
		}
		if err := streamer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "zsrun:", err)
		}
		st := streamer.Stats()
		fmt.Printf("# streamed %d events in %d batches to %s (dropped %d)\n",
			st.SentEvents, st.SentBatches, *agg, st.RingDrops+st.SendDrops)
		// In a tree deployment the summary lives at the root, one hop above
		// these leaves; the first endpoint is only a hint.
		fmt.Printf("#   curl %s/api/job/%s/summary\n", aggURLs[0], *jobName)
		fmt.Printf("#   curl %s/metrics\n", aggURLs[0])
	}
	// Each rank's CSVs (paper §3.6) are rendered from its .zsbp once the
	// log holds the last instant.
	for _, rr := range res.Ranks {
		rl := rankLogs[rr.Rank]
		if rl == nil {
			continue
		}
		if err := rl.log.Close(); err != nil {
			fatal(fmt.Errorf("rank %d log: %w", rr.Rank, err))
		}
		if err := rl.file.Close(); err != nil {
			fatal(err)
		}
		writeRankCSVs(rankBase(*logdir, rr.Rank))
	}
	if *obsDump != "" && !*noMon {
		var self *obs.SelfStats
		if len(res.Ranks) > 0 && res.Ranks[0].Monitor != nil {
			s := res.Ranks[0].Monitor.SelfStats()
			self = &s
		}
		data, err := obs.EncodeDump(obs.BuildDump("zsrun", rec, self))
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*obsDump, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("# internal-tracing dump written to", *obsDump)
	}
	if *logdir != "" {
		fmt.Println("# logs written to", *logdir)
	}
	if *trace != "" && len(res.Traces) > 0 {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := res.Traces[0].WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Println("# scheduling trace written to", *trace)
	}
}

func rankBase(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("zerosum.rank%03d", rank))
}

func writeRankReport(dir string, rr workload.RankResult, opts report.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(rankBase(dir, rr.Rank) + ".log")
	if err != nil {
		return err
	}
	if err := report.Write(f, rr.Snapshot, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRankCSVs renders base.{lwp,hwt,gpu,mem}.csv from base.zsbp. zsrun
// wrote that log itself, so a frame it cannot read is fatal, not a torn
// tail to report around.
func writeRankCSVs(base string) {
	in, err := os.Open(base + ".zsbp")
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	var out [4]*os.File
	for k, suffix := range []string{".lwp.csv", ".hwt.csv", ".gpu.csv", ".mem.csv"} {
		if out[k], err = os.Create(base + suffix); err != nil {
			fatal(err)
		}
	}
	sink := export.NewCSVSink(out[0], out[1], out[2], out[3])
	bad := func(err error) { fatal(fmt.Errorf("%s.zsbp: %w", base, err)) }
	if err := aggd.ReplayFrameLog(in, sink.Subscriber(), bad); err != nil {
		bad(err)
	}
	if err := sink.Close(); err != nil {
		fatal(err)
	}
	for _, f := range out {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("%d", n)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zsrun:", err)
	os.Exit(1)
}
