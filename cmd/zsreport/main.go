// Command zsreport post-processes ZeroSum's per-process logs (the CSV logs
// from zsrun/zerosum, or the .zsbp log of wire frames that zsrun -logdir
// writes beside them) into utilization time-series charts and summaries —
// Figures 6 and 7 of the paper, from recorded data instead of a live run.
//
// Usage:
//
//	zsreport -lwp logs/zerosum.rank000.lwp.csv [-hwt ...hwt.csv] [-tsv]
//	zsreport -staged logs/zerosum.rank000.zsbp [-tsv]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"zerosum/internal/aggd"
	"zerosum/internal/analysis"
	"zerosum/internal/export"
)

func main() {
	var (
		lwpPath    = flag.String("lwp", "", "LWP sample CSV")
		hwtPath    = flag.String("hwt", "", "HWT sample CSV")
		memPath    = flag.String("mem", "", "memory sample CSV")
		stagedPath = flag.String("staged", "", ".zsbp log of wire batch frames (zsrun -logdir DIR writes one per rank)")
		tsv        = flag.Bool("tsv", false, "emit TSV instead of sparklines")
	)
	flag.Parse()
	if *lwpPath == "" && *hwtPath == "" && *memPath == "" && *stagedPath == "" {
		fmt.Fprintln(os.Stderr, "zsreport: give at least one of -lwp, -hwt, -mem, -staged")
		os.Exit(2)
	}
	if *lwpPath != "" {
		if err := reportLWP(*lwpPath, *tsv); err != nil {
			fatal(err)
		}
	}
	if *hwtPath != "" {
		if err := reportHWT(*hwtPath, *tsv); err != nil {
			fatal(err)
		}
	}
	if *memPath != "" {
		if err := reportMem(*memPath); err != nil {
			fatal(err)
		}
	}
	if *stagedPath != "" {
		if err := reportStaged(*stagedPath, *tsv); err != nil {
			fatal(err)
		}
	}
}

func reportLWP(path string, tsv bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := export.ReadLWPCSV(f)
	if err != nil {
		return err
	}
	chart := analysis.NewStackedChart("LWP (threads) utilization over time — " + path)
	series := map[int]*analysis.Series{}
	kinds := map[int]string{}
	for _, s := range samples {
		sr := series[s.TID]
		if sr == nil {
			sr = &analysis.Series{Name: fmt.Sprintf("LWP %d user%%", s.TID)}
			series[s.TID] = sr
			chart.Add(sr)
		}
		sr.Append(s.TimeSec, s.UserPct)
		kinds[s.TID] = s.Kind
	}
	if tsv {
		return chart.WriteTSV(os.Stdout)
	}
	if err := chart.WriteSparklines(os.Stdout, 100); err != nil {
		return err
	}
	// Contention quick-look: final cumulative context switches per thread.
	last := map[int]export.LWPSample{}
	for _, s := range samples {
		last[s.TID] = s
	}
	tids := make([]int, 0, len(last))
	for tid := range last {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	fmt.Println("\nfinal counters:")
	for _, tid := range tids {
		s := last[tid]
		fmt.Printf("  LWP %-8d %-14s nvctx %8d  vctx %8d  last CPU %d\n",
			tid, s.Kind, s.NVCtx, s.VCtx, s.CPU)
	}
	return nil
}

func reportHWT(path string, tsv bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := export.ReadHWTCSV(f)
	if err != nil {
		return err
	}
	chart := analysis.NewStackedChart("CPU core utilization over time — " + path)
	series := map[int]*analysis.Series{}
	for _, s := range samples {
		sr := series[s.CPU]
		if sr == nil {
			sr = &analysis.Series{Name: fmt.Sprintf("CPU %d user%%", s.CPU)}
			series[s.CPU] = sr
			chart.Add(sr)
		}
		sr.Append(s.TimeSec, s.UserPct)
	}
	if tsv {
		return chart.WriteTSV(os.Stdout)
	}
	return chart.WriteSparklines(os.Stdout, 100)
}

func reportMem(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := export.ReadMemCSV(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no memory samples in %s", path)
	}
	minFree := samples[0].FreeKB
	var peakRSS uint64
	var frees []float64
	for _, s := range samples {
		if s.FreeKB < minFree {
			minFree = s.FreeKB
		}
		if s.ProcRSSKB > peakRSS {
			peakRSS = s.ProcRSSKB
		}
		frees = append(frees, float64(s.FreeKB>>10))
	}
	fmt.Printf("memory — %s\n", path)
	fmt.Printf("  system free (MB) %s\n", analysis.Sparkline(frees, 0))
	fmt.Printf("  minimum free: %d MB of %d MB; peak process RSS: %d MB\n",
		minFree>>10, samples[len(samples)-1].TotalKB>>10, peakRSS>>10)
	return nil
}

// reportStaged charts a .zsbp log: wire batch frames back to back, one per
// sampling instant, as zsrun -logdir writes them (aggd.FrameLog). Each
// variable is one series; a distinct timestamp is one step. A log whose
// writer died mid-frame, or that holds corrupt bytes, still reports every
// frame that checks out, and says on stderr what it had to skip.
func reportStaged(path string, tsv bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	series := map[string]*analysis.Series{}
	steps := map[float64]bool{}
	put := func(name string, t, v float64) {
		sr := series[name]
		if sr == nil {
			sr = &analysis.Series{Name: name}
			series[name] = sr
		}
		// A variable keeps its first value at an instant.
		if n := len(sr.Times); n == 0 || sr.Times[n-1] != t {
			sr.Append(t, v)
		}
	}
	err = aggd.ReplayFrameLog(f, func(ev export.Event) {
		t := ev.TimeSec
		steps[t] = true
		switch ev.Kind {
		case export.EventLWP:
			l := ev.LWP
			put(fmt.Sprintf("lwp.%d.user_pct", l.TID), t, l.UserPct)
			put(fmt.Sprintf("lwp.%d.sys_pct", l.TID), t, l.SysPct)
			put(fmt.Sprintf("lwp.%d.nvctx", l.TID), t, float64(l.NVCtx))
			put(fmt.Sprintf("lwp.%d.vctx", l.TID), t, float64(l.VCtx))
			put(fmt.Sprintf("lwp.%d.cpu", l.TID), t, float64(l.CPU))
		case export.EventHWT:
			h := ev.HWT
			put(fmt.Sprintf("hwt.%d.user_pct", h.CPU), t, h.UserPct)
			put(fmt.Sprintf("hwt.%d.sys_pct", h.CPU), t, h.SysPct)
			put(fmt.Sprintf("hwt.%d.idle_pct", h.CPU), t, h.IdlePct)
		case export.EventGPU:
			put(fmt.Sprintf("gpu.%d.%s", ev.GPU.GPU, ev.GPU.Metric), t, ev.GPU.Value)
		case export.EventMem:
			put("mem.free_kb", t, float64(ev.Mem.FreeKB))
			put("mem.rss_kb", t, float64(ev.Mem.ProcRSSKB))
		}
	}, func(err error) {
		fmt.Fprintf(os.Stderr, "zsreport: %s: %v\n", path, err)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "zsreport: %s: log ends in a torn frame (%v); reporting the frames before it\n", path, err)
	}
	if len(steps) == 0 {
		return fmt.Errorf("no steps in %s", path)
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	chart := analysis.NewStackedChart("staged stream — " + path)
	for _, name := range names {
		chart.Add(series[name])
	}
	fmt.Printf("%d steps, %d variables\n", len(steps), len(series))
	if tsv {
		return chart.WriteTSV(os.Stdout)
	}
	// Sparkline only percentage-like variables to keep output readable.
	filtered := analysis.NewStackedChart(chart.Title)
	for _, sr := range chart.Series {
		if strings.HasSuffix(sr.Name, "_pct") {
			filtered.Add(sr)
		}
	}
	if len(filtered.Series) == 0 {
		filtered = chart
	}
	return filtered.WriteSparklines(os.Stdout, 100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zsreport:", err)
	os.Exit(1)
}
