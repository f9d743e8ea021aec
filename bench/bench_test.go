package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smokeSize runs everything at about a hundredth of full size: 0.4 s per
// phase, a five-tick tape, one set-up, short replays.
var smokeSize = runOpts{setups: 1, tapeSteps: 16, warmSteps: 4, replay: replayer(2 * time.Millisecond)}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestManifestMatchesProgram pins BENCHMARK.json to the program: the same
// workloads with the same reasons, the same metrics with the same units,
// directions and bounds. A name is the stable vocabulary later changes cite;
// it may not drift in one place only.
func TestManifestMatchesProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.name] {
			t.Errorf("%s is both an end-to-end and a per-layer metric", d.name)
		}
	}
}

// TestSmoke drives all four workloads through the real pipeline, untraced
// and traced, and holds them to what a full-size run is held to: the books
// close, and the result line carries every metric BENCHMARK.json names,
// once, with its unit. API drift that would break the benchmark in a later
// change breaks this first.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel() // four independent pipelines; nothing timing-sensitive is asserted
			plain, traced, err := tracedRun(sp, 1, 0.4, 0.4, smokeSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*result{plain, traced} {
				// Self-checks (res.voided) judge the host's scheduling, which
				// a test sharing two cores with other packages cannot promise.
				if res.failed != 0 {
					t.Errorf("traced=%v: %d of %d operations failed: %v", res.traced, res.failed, res.attempted, res.failures)
				}
			}
			for _, c := range []struct {
				res  *result
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				line, err := resultLine(c.res, c.defs)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Metrics map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(out.Metrics) != len(c.defs) {
					t.Errorf("result line has %d metrics, want %d", len(out.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if m, ok := out.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want a value in %s", d.name, m, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if d.name == "live_heap_mb" {
					continue // a difference of the process's heap, which the four parallel pipelines share
				}
				if plain.values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s reads %v; it must never be 0", d.name, plain.values[d.name])
				}
			}
			if len(traced.spans) == 0 {
				t.Error("traced run kept no spans")
			}
			t.Logf("obs.trace_overhead_frac %.3f (informative at this size; README.md has the full-size figure)",
				traced.values["obs.trace_overhead_frac"])
		})
	}
}

// TestAtReferenceSpeed: on a host at half speed a time reads twice as long
// and a rate half as high as on the reference host; sizes, and what the
// workload's own schedule paces, are reported as measured.
func TestAtReferenceSpeed(t *testing.T) {
	res := newResult("dash_mixed", false)
	res.set("host.speed_x", 0.5)
	res.set("host.setup_speed_x", 0.25)
	res.paced["events_per_s"] = true
	for name, want := range map[string]float64{
		"setup_s": 1, "tick_us_p50": 2, "cpu_us_per_event": 2, "events_per_s": 4, "wire_bytes_per_event": 4,
	} {
		res.set(name, 4)
		if got := res.atRef(endToEndDef(name)); got != want {
			t.Errorf("%s: 4 as measured is %v at reference speed, want %v", name, got, want)
		}
	}
	res.paced["events_per_s"] = false
	if got := res.atRef(endToEndDef("events_per_s")); got != 8 {
		t.Errorf("events_per_s: 4 as measured at half speed is %v at reference speed, want 8", got)
	}
}

// TestTapeIsAFunctionOfTheSeed: same seed, same input, bit for bit; another
// seed, another input.
func TestTapeIsAFunctionOfTheSeed(t *testing.T) {
	a, err := buildTape(7, smokeSize.tapeSteps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildTape(7, smokeSize.tapeSteps)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildTape(8, smokeSize.tapeSteps)
	if err != nil {
		t.Fatal(err)
	}
	if a.sha != b.sha {
		t.Errorf("seed 7 built tapes %s and %s", a.sha, b.sha)
	}
	if a.sha == c.sha {
		t.Errorf("seeds 7 and 8 built the same tape %s", a.sha)
	}
	for k, n := range a.kinds {
		if n == 0 {
			t.Errorf("tape holds no events of kind %d", k)
		}
	}
}
