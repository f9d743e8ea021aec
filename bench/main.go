// Command bench is the pipeline benchmark: it drives the real path — sched-
// sim /proc bytes → proc → core.Monitor.Tick → export.Stream → aggd.Agent →
// (leaf aggd.Server → aggd.Forwarder →) root aggd.Server → tsdb.Store → HTTP
// query — through public entry points only, times it from outside, checks
// the books, and prints every metric by name. README.md is the manual.
//
//	go run ./bench -seed 1                      the suite: four workloads, untraced then traced, with ledgers
//	go run ./bench -agree                       two interleaved sets of the suite must agree within bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                            one run; last stdout line is the result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// runOpts are the knobs a run takes besides its workload, seed and length.
type runOpts struct {
	traced    bool
	setups    int // how many times set-up runs; setup_s is their median, as the driver's contract asks
	tapeSteps int // application steps behind the tape (tapeSteps for the real thing)
	warmSteps int // application steps of sample_node's set-up job
	replay    replayer
}

// fullSize is how the benchmark runs outside its own smoke test.
var fullSize = runOpts{setups: 5, tapeSteps: tapeSteps, warmSteps: 8, replay: replayer(40 * time.Millisecond)}

func run(sp *spec, seed uint64, seconds float64, o runOpts) (*result, error) {
	if sp.sample {
		return runSample(sp, seed, seconds, o)
	}
	return runTape(sp, seed, seconds, o)
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders res the way the driver reads it: the named metrics,
// each exactly once, and the books.
func resultLine(res *result, defs []metricDef) (string, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.bad() == 0, res.attempted, res.bad(), map[string]jsonMetric{}}
	for _, d := range defs {
		if _, ok := res.values[d.name]; !ok && d.better != "" {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", res.workload, d.name)
		}
		out.Metrics[d.name] = jsonMetric{res.atRef(d), d.unit} // a layer the workload never entered reads 0
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// printTable lists defs with res's values, units and sample counts, and
// what a metric reported at reference speed read as measured.
func printTable(res *result, defs []metricDef) {
	for _, d := range defs {
		v := res.atRef(d)
		n := ""
		if c, ok := res.counts[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		if raw := res.values[d.name]; raw != v {
			n += fmt.Sprintf("  (as measured %.4f)", raw)
		}
		fmt.Printf("  %-42s %14.4f %-6s%s\n", d.name, v, d.unit, n)
	}
}

func printFailures(res *result) {
	fmt.Printf("  books: attempted %d, failed %d (failed_frac %.3g), self-checks failed %d\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), res.voided)
	for _, f := range res.failures {
		fmt.Printf("  FAIL: %s\n", f)
	}
}

// single is the driver's entry: one workload, one run, one JSON line.
func single(name string, seed uint64, seconds float64, traced bool, outDir string) error {
	sp := specByName(name)
	if sp == nil {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		return fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
	}
	defs := endToEnd
	var res *result
	var err error
	if traced {
		// Half the time each way: the per-layer numbers come from the
		// traced half, the untraced half is what its overhead is against.
		var plain *result
		if plain, res, err = tracedRun(sp, seed, seconds/2, seconds/2, fullSize); err == nil {
			res.attempted += plain.attempted
			res.voided += plain.voided
			res.fail(plain.failed, "untraced half: %s", strings.Join(plain.failures, "; "))
		}
		defs = perLayer
	} else {
		res, err = run(sp, seed, seconds, fullSize)
	}
	if err != nil {
		return err
	}
	if err := writeSpans(outDir, res); err != nil {
		return err
	}
	fmt.Printf("%s seed=%d input=%s\n", res.workload, seed, res.inputSHA)
	printTable(res, defs)
	if traced {
		printLedger(res)
	}
	printFailures(res)
	line, err := resultLine(res, defs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// tracedRun measures a workload untraced, then again with tracing on. The
// traced result carries the tracing overhead between the two; end-to-end
// numbers are only ever read from the untraced one.
func tracedRun(sp *spec, seed uint64, plainSeconds, tracedSeconds float64, o runOpts) (plain, traced *result, err error) {
	if plain, err = run(sp, seed, plainSeconds, o); err != nil {
		return nil, nil, err
	}
	o.traced = true
	if traced, err = run(sp, seed, tracedSeconds, o); err != nil {
		return nil, nil, err
	}
	// The two halves run one after the other, so each is taken at reference
	// speed: the host may have moved in between.
	cpu := endToEndDef("cpu_us_per_event")
	base := plain.atRef(cpu)
	traced.set("obs.trace_overhead_frac", ratio(traced.atRef(cpu)-base, base))
	traced.set("failed_frac", ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted)))
	return plain, traced, nil
}

// suite runs every workload untraced for seconds and traced for a quarter
// of that, printing both tables and the ledger. It reports whether every
// run was correct.
func suite(seed uint64, seconds float64, outDir string) (bool, error) {
	ok := true
	for _, sp := range specs {
		plain, traced, err := tracedRun(sp, seed, seconds, seconds/4, fullSize)
		if err != nil {
			return false, err
		}
		fmt.Printf("\n== %s (seed %d, %.0f s, input %s)\n   %s\n", sp.name, seed, seconds, plain.inputSHA, sp.why)
		fmt.Println(" end to end (tracing off):")
		printTable(plain, endToEnd)
		printFailures(plain)
		if err := writeSpans(outDir, traced); err != nil {
			return false, err
		}
		fmt.Println(" per layer (traced run):")
		printTable(traced, perLayer)
		printLedger(traced)
		printFailures(traced)
		ok = ok && plain.bad() == 0 && traced.bad() == 0
	}
	return ok, nil
}

func main() {
	workload := flag.String("workload", "", "run one workload and print its result as the last line (JSON)")
	seed := flag.Uint64("seed", 1, "drives the simulator seed and the publish order")
	seconds := flag.Float64("seconds", 24, "how long each measured phase lasts")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ones from a traced run")
	agreeFlag := flag.Bool("agree", false, "run the suite as two interleaved sets and fail unless they agree within each metric's bound")
	outDir := flag.String("out", "bench/out", "where traced runs write their spans")
	flag.Parse()

	var err error
	switch {
	case *workload != "":
		err = single(*workload, *seed, *seconds, *trace != 0, *outDir)
	case *agreeFlag:
		err = agree(*seed, *seconds)
	default:
		var ok bool
		if ok, err = suite(*seed, *seconds, *outDir); err == nil && !ok {
			err = fmt.Errorf("correctness checks failed")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
