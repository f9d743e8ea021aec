// Command zerosum is the live-host monitor: the user-space equivalent of
// the paper's `zerosum-mpi <application>` wrapper. It launches a child
// command (or attaches to an existing PID), samples its threads, the
// host's hardware threads and memory through the real /proc once per
// period, and prints the utilization + contention report when the child
// exits. With -csv, every periodic sample is written as CSV when it is
// taken, for time-series analysis; the monitor itself keeps none.
//
// Usage:
//
//	zerosum [-period 1s] [-csv PREFIX] [-heartbeat N] [--] command args...
//	zerosum -pid 1234 -duration 30s
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"time"

	"zerosum/internal/core"
	"zerosum/internal/crash"
	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/proc"
	"zerosum/internal/report"
)

func main() {
	var (
		period     = flag.Duration("period", time.Second, "sampling period")
		pid        = flag.Int("pid", 0, "attach to an existing process instead of launching one")
		duration   = flag.Duration("duration", 0, "with -pid: how long to monitor (0 = until the process exits)")
		csvPrefix  = flag.String("csv", "", "write every sample, as it is taken, to PREFIX.{lwp,hwt,mem}.csv")
		heartbeat  = flag.Int("heartbeat", 0, "print a heartbeat every N samples")
		backtrace  = flag.Bool("backtrace", true, "install the abnormal-exit backtrace handler")
		stallTicks = flag.Int("stall-ticks", 0, "flag a thread stalled after N samples with no progress (0 = off)")
		budget     = flag.Float64("budget", 0, "self-overhead budget in percent; exceeding it degrades sampling (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/obs and /debug/pprof on this address while monitoring")
	)
	flag.Parse()

	// The CSV logs are written as samples are taken, so they exist before
	// anything runs.
	var stream *export.Stream
	var csvFiles []*os.File
	var csvSink *export.CSVSink
	if *csvPrefix != "" {
		for _, suffix := range []string{".lwp.csv", ".hwt.csv", ".mem.csv"} {
			f, err := os.Create(*csvPrefix + suffix)
			if err != nil {
				fatal(err)
			}
			csvFiles = append(csvFiles, f)
		}
		csvSink = export.NewCSVSink(csvFiles[0], csvFiles[1], nil, csvFiles[2])
		stream = &export.Stream{}
		stream.Subscribe(csvSink.Subscriber())
	}

	fs := proc.NewRealFS()
	var child *exec.Cmd
	targetPID := *pid
	if targetPID == 0 {
		args := flag.Args()
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "zerosum: need a command to run or -pid")
			os.Exit(2)
		}
		child = exec.Command(args[0], args[1:]...)
		child.Stdout = os.Stdout
		child.Stderr = os.Stderr
		child.Stdin = os.Stdin
		if err := child.Start(); err != nil {
			fatal(err)
		}
		targetPID = child.Process.Pid
	}

	rec := obs.NewRecorder(0)
	mon, err := core.New(core.Config{
		Period:         *period,
		HeartbeatEvery: *heartbeat,
		Heartbeat:      os.Stderr,
		Stream:         stream,
		StallTicks:     *stallTicks,
		Obs:            rec,
		Budget:         obs.Budget{Enabled: *budget > 0, MaxPct: *budget},
	}, core.Deps{
		FS:    &pidFS{RealFS: fs, pid: targetPID},
		Clock: time.Now,
	})
	if err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		mux := http.NewServeMux()
		// PublishedSelfStats, not SelfStats: the handler runs on server
		// goroutines concurrent with the Tick loop below.
		mux.Handle("GET /debug/obs", obs.Handler("zerosum", rec, mon.PublishedSelfStats))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//zerosum:detached debug server lives for the whole process; the OS reaps it at exit
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "zerosum: debug server:", err)
			}
		}()
	}

	if *backtrace {
		h := crash.New(os.Stderr)
		h.OnReport(func(w io.Writer) {
			_ = report.Write(w, mon.Snapshot(), report.Options{})
		})
		h.Install(nil)
	}

	done := make(chan struct{})
	if child != nil {
		go func() {
			_ = child.Wait()
			close(done)
		}()
	} else if *duration > 0 {
		go func() {
			time.Sleep(*duration)
			close(done)
		}()
	}

	ticker := time.NewTicker(*period)
	defer ticker.Stop()
	cur := *period
	exitCode := 0
loop:
	for {
		select {
		case <-done:
			break loop
		case <-ticker.C:
			if err := mon.Tick(); err != nil {
				// The target exited between samples: finish up.
				break loop
			}
			// The overhead-budget watchdog may have degraded the rate.
			if p := mon.CurrentPeriod(); p != cur {
				cur = p
				ticker.Reset(p)
			}
		}
	}
	mon.Finish()
	if child != nil && child.ProcessState != nil {
		exitCode = child.ProcessState.ExitCode()
	}

	fmt.Fprintln(os.Stderr)
	if err := report.Write(os.Stderr, mon.Snapshot(), report.Options{Contention: true, Memory: true, Self: true}); err != nil {
		fatal(err)
	}
	if csvSink != nil {
		if err := csvSink.Close(); err != nil {
			fatal(err)
		}
		for _, f := range csvFiles {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	os.Exit(exitCode)
}

// pidFS retargets a RealFS at another process's /proc entries.
type pidFS struct {
	*proc.RealFS
	pid int
}

func (p *pidFS) SelfPID() int { return p.pid }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zerosum:", err)
	os.Exit(1)
}
