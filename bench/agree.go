package main

import "fmt"

// agreeRuns is how many runs each of the two sets makes per workload: the
// five same-commit runs a metric has to hold its bound across.
const agreeRuns = 5

// worse is by what share of a's median b's median is worse, given which
// direction is better; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// spread is (max − min) ÷ median.
func spread(s samples) float64 { return ratio(s.pct(1)-s.pct(0), s.pct(0.5)) }

// agree runs every workload agreeRuns times for each of two sets, interleaved
// A B A B so drift in the host hits both alike, every run on the same seed —
// the input digests are compared to prove it — and fails unless every
// end-to-end metric's two medians agree within the metric's own bound, in
// either direction, since neither set is the change. It also prints each
// set's spread, which is how a metric that cannot hold its bound across five
// runs of one commit is found and demoted. Run it again with another -seed
// for the second-seed check.
func agree(seed uint64, seconds float64) error {
	var bad []string
	for _, sp := range specs {
		sets := [2]map[string]samples{{}, {}}
		input := ""
		for i := 0; i < 2*agreeRuns; i++ {
			res, err := run(sp, seed, seconds, fullSize)
			if err != nil {
				return err
			}
			if res.bad() > 0 {
				bad = append(bad, fmt.Sprintf("%s run %d: %d failed operations or self-checks: %v", sp.name, i, res.bad(), res.failures))
			}
			if input == "" {
				input = res.inputSHA
			}
			if res.inputSHA != input {
				bad = append(bad, fmt.Sprintf("%s run %d: input %s, run 0 had %s", sp.name, i, res.inputSHA, input))
			}
			for _, d := range endToEnd {
				sets[i%2][d.name] = append(sets[i%2][d.name], res.atRef(d))
			}
		}
		fmt.Printf("\n== %s: 2 sets of %d runs, seed %d, %.0f s each, input %s\n", sp.name, agreeRuns, seed, seconds, input)
		fmt.Printf("  %-24s %14s %14s %9s %7s %9s %9s\n", "metric", "median A", "median B", "B worse", "bound", "spread A", "spread B")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			w := worse(d, a.pct(0.5), b.pct(0.5))
			verdict := ""
			if w > d.bound || -w > d.bound {
				verdict = "  DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.1f%%, bound %.0f%%", sp.name, d.name, a.pct(0.5), b.pct(0.5), 100*w, 100*d.bound))
			}
			fmt.Printf("  %-24s %14.4f %14.4f %8.1f%% %6.0f%% %8.1f%% %8.1f%%%s\n", d.name, a.pct(0.5), b.pct(0.5),
				100*w, 100*d.bound, 100*spread(a), 100*spread(b), verdict)
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Println("FAIL:", b)
		}
		return fmt.Errorf("%d disagreements or incorrect runs", len(bad))
	}
	return nil
}
