// Command experiments regenerates every table and figure from the paper's
// evaluation section on the simulated Frontier testbed and prints
// paper-vs-measured comparisons.
//
// Usage:
//
//	experiments [-run L1|L2|T1|T2|T3|F5|F6|F7|F8|all] [-scale 1.0] [-runs 10] [-seed 1] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"zerosum/internal/analysis"
	"zerosum/internal/core"
	"zerosum/internal/experiments"
	"zerosum/internal/report"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment id (L1,L2,T1,T2,T3,F5,F6,F7,F8) or 'all'")
		scale = flag.Float64("scale", 1.0, "workload scale relative to the paper (1.0 = full)")
		runs  = flag.Int("runs", 10, "repetitions per side for the Figure 8 overhead experiment")
		ranks = flag.Int("ranks", 512, "MPI ranks for the Figure 5 heatmap")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		verb  = flag.Bool("v", false, "print full per-rank reports")
	)
	flag.Parse()

	ids := strings.Split(strings.ToUpper(*run), ",")
	if *run == "all" {
		ids = []string{"L1", "L2", "T1", "T2", "T3", "F5", "F6", "F7", "F8", "ABL"}
	}
	for _, id := range ids {
		if err := runOne(os.Stdout, strings.TrimSpace(id), *scale, *runs, *ranks, *seed, *verb); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func runOne(w io.Writer, id string, scale float64, runs, ranks int, seed uint64, verbose bool) error {
	switch id {
	case "L1":
		fmt.Fprintln(w, "## Listing 1 — hwloc topology of the 4-core test system")
		fmt.Fprintln(w, experiments.Listing1())
	case "L2":
		tr, err := experiments.Listing2(scale, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "## Listing 2 — miniQMC target offload, full ZeroSum report (rank 0)")
		fmt.Fprintf(w, "# %s\n", tr.Command)
		fmt.Fprintf(w, "# paper duration %.3f s (at scale %.2f: %.3f s), measured %.3f s\n\n",
			experiments.PaperL2Seconds, scale, tr.PaperSeconds, tr.WallSeconds)
		if err := report.Write(w, tr.Snapshot, report.Options{Memory: true, Contention: true}); err != nil {
			return err
		}
	case "T1", "T2", "T3":
		var tr *experiments.TableResult
		var err error
		switch id {
		case "T1":
			tr, err = experiments.Table1(scale, seed)
		case "T2":
			tr, err = experiments.Table2(scale, seed)
		case "T3":
			tr, err = experiments.Table3(scale, seed)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s\n", tr.Label)
		fmt.Fprintf(w, "# %s\n", tr.Command)
		fmt.Fprintf(w, "# paper runtime %.2f s (scaled: %.2f s), measured %.2f s\n",
			tr.PaperSeconds/scale, tr.PaperSeconds, tr.WallSeconds)
		if err := report.WriteComparison(w, []string{tr.Label}, []core.Snapshot{tr.Snapshot}); err != nil {
			return err
		}
		if verbose {
			if err := report.Write(w, tr.Snapshot, report.Options{Contention: true, Memory: true}); err != nil {
				return err
			}
		}
	case "F5":
		hm, res, err := experiments.Figure5(ranks, scale, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Figure 5 — MPI point-to-point heatmap, %d ranks\n", ranks)
		fmt.Fprintf(w, "# total bytes: %.3e, nearest-neighbour band fraction (|d|<=1): %.3f\n",
			hm.Total(), hm.BandFraction(1))
		fmt.Fprintf(w, "# job wall: %.2f s\n\n", res.WallSeconds)
		if err := hm.WriteASCII(w, 64); err != nil {
			return err
		}
	case "F6", "F7":
		sr, err := experiments.Figures6And7(scale, seed)
		if err != nil {
			return err
		}
		if id == "F6" {
			fmt.Fprintln(w, "## Figure 6 — LWP (threads) utilization over time")
			fmt.Fprintf(w, "# mean sample-to-sample noisiness: %.4f\n", sr.LWPNoisiness)
			if err := sr.LWP.WriteSparklines(w, 100); err != nil {
				return err
			}
			if verbose {
				return sr.LWP.WriteTSV(w)
			}
		} else {
			fmt.Fprintln(w, "## Figure 7 — CPU core utilization over time")
			fmt.Fprintf(w, "# mean sample-to-sample noisiness: %.4f\n", sr.HWTNoisiness)
			if err := sr.HWT.WriteSparklines(w, 100); err != nil {
				return err
			}
			if verbose {
				return sr.HWT.WriteTSV(w)
			}
		}
	case "F8":
		scens, err := experiments.Figure8(runs, scale, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Figure 8 — ZeroSum overhead, %d runs per side\n", runs)
		paper := [2]struct {
			base, with, p float64
		}{
			{experiments.PaperF8Base1T, experiments.PaperF8With1T, experiments.PaperF8P1T},
			{experiments.PaperF8Base2T, experiments.PaperF8With2T, experiments.PaperF8P2T},
		}
		for i, sc := range scens {
			fmt.Fprintf(w, "\n%s:\n", sc.Name)
			fmt.Fprintf(w, "  baseline: %s\n", sc.BaselineStats)
			fmt.Fprintf(w, "  zerosum : %s\n", sc.WithStats)
			fmt.Fprintf(w, "  overhead: %+.4f s (%+.3f%%)\n", sc.OverheadSec, sc.OverheadFrac*100)
			fmt.Fprintf(w, "  Welch t-test: t=%+.3f df=%.1f p=%.4g\n", sc.TTest.T, sc.TTest.DF, sc.TTest.P)
			fmt.Fprintf(w, "  paper: baseline %.4f s, zerosum %.4f s, p=%.4g\n",
				paper[i].base*scale, paper[i].with*scale, paper[i].p)
			fmt.Fprintln(w, "  runtime distributions (the Figure 8 view):")
			if err := analysis.CompareDistributions(w,
				"baseline", sc.Baseline, "with zerosum", sc.WithZeroSum, 8); err != nil {
				return err
			}
		}
	case "ABL":
		abl, err := experiments.Ablations(min(runs, 5), scale, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "## Ablations — why each contention model exists")
		for _, a := range abl {
			fmt.Fprintln(w)
			fmt.Fprintln(w, a)
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	fmt.Fprintln(w)
	return nil
}
