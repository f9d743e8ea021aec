package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	even := Summarize([]float64{4, 1, 3, 2})
	if even.Median != 2.5 {
		t.Fatalf("median = %v, want 2.5", even.Median)
	}
	single := Summarize([]float64{7})
	if single.Std != 0 || single.Mean != 7 {
		t.Fatalf("single = %+v", single)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Fatal("String format")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample should panic")
		}
	}()
	Summarize(nil)
}

func TestWelchTTestIdenticalDistributions(t *testing.T) {
	// Two samples drawn to be nearly identical: p should be large (the
	// paper's 1 thread/core comparison: p = 0.998 -> same distribution).
	a := []float64{27.31, 27.35, 27.33, 27.36, 27.32, 27.34, 27.35, 27.33, 27.31, 27.36}
	b := []float64{27.32, 27.34, 27.33, 27.35, 27.33, 27.33, 27.36, 27.32, 27.32, 27.35}
	r, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P < 0.5 {
		t.Fatalf("p = %v, want > 0.5 for near-identical samples", r.P)
	}
}

func TestWelchTTestShiftedDistributions(t *testing.T) {
	// The 2 threads/core comparison: a consistent ~0.5% shift must give a
	// tiny p (paper: 0.0006).
	a := []float64{57.03, 57.08, 57.05, 57.10, 57.02, 57.07, 57.04, 57.09, 57.06, 57.05}
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = v + 0.28
	}
	r, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 0.001 {
		t.Fatalf("p = %v, want < 0.001 for shifted samples", r.P)
	}
	if r.T >= 0 {
		t.Fatalf("t = %v, want negative (a < b)", r.T)
	}
}

func TestWelchTTestAgainstKnownValue(t *testing.T) {
	// Cross-checked with scipy.stats.ttest_ind(equal_var=False):
	// a = [1,2,3,4,5], b = [2,3,4,5,6] -> t = -1.0, p ~= 0.3466.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 3, 4, 5, 6}
	r, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.T+1.0) > 1e-9 {
		t.Fatalf("t = %v, want -1.0", r.T)
	}
	if math.Abs(r.P-0.3466) > 0.002 {
		t.Fatalf("p = %v, want ~0.3466", r.P)
	}
	if math.Abs(r.DF-8) > 1e-9 {
		t.Fatalf("df = %v, want 8", r.DF)
	}
}

func TestWelchTTestErrorsAndDegenerate(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("too-small sample should error")
	}
	r, err := WelchTTest([]float64{3, 3, 3}, []float64{3, 3, 3})
	if err != nil || r.P != 1 {
		t.Fatalf("identical constants: %+v, %v", r, err)
	}
	r, err = WelchTTest([]float64{3, 3, 3}, []float64{4, 4, 4})
	if err != nil || r.P != 0 {
		t.Fatalf("distinct constants: %+v, %v", r, err)
	}
}

func TestQuickTTestSymmetry(t *testing.T) {
	f := func(seed uint8) bool {
		a := []float64{1 + float64(seed%7), 2, 3, 5, 8}
		b := []float64{2, 3, 4, 4.5, 9}
		r1, err1 := WelchTTest(a, b)
		r2, err2 := WelchTTest(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1.T+r2.T) < 1e-9 && math.Abs(r1.P-r2.P) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeOverhead(t *testing.T) {
	base := []float64{100, 100}
	with := []float64{100.5, 100.5}
	if got := RelativeOverhead(base, with); math.Abs(got-0.005) > 1e-9 {
		t.Fatalf("overhead = %v, want 0.005", got)
	}
	if RelativeOverhead([]float64{0, 0}, with) != 0 {
		t.Fatal("zero baseline should return 0")
	}
}

func TestHeatmapBasics(t *testing.T) {
	h := NewHeatmap(4)
	h.Set(1, 2, 10)
	h.Add(1, 2, 5)
	if h.At(1, 2) != 15 {
		t.Fatal("At/Set/Add")
	}
	if h.Max() != 15 || h.Total() != 15 {
		t.Fatal("Max/Total")
	}
}

func TestHeatmapFromMatrixAndBand(t *testing.T) {
	n := 16
	m := make([][]uint64, n)
	for d := range m {
		m[d] = make([]uint64, n)
		m[d][(d+1)%n] = 100
		m[d][(d+n-1)%n] = 100
	}
	h := FromMatrix(m)
	if got := h.BandFraction(1); got != 1.0 {
		t.Fatalf("band(1) = %v, want 1.0 for pure nearest-neighbor", got)
	}
	if got := h.BandFraction(0); got != 0 {
		t.Fatalf("band(0) = %v, want 0 (no self-sends)", got)
	}
}

func TestHeatmapDownsample(t *testing.T) {
	h := NewHeatmap(8)
	for i := 0; i < 8; i++ {
		h.Set(i, i, 1)
	}
	d := h.Downsample(4)
	if d.N != 4 {
		t.Fatal("size")
	}
	if d.Total() != h.Total() {
		t.Fatalf("downsample must conserve total: %v vs %v", d.Total(), h.Total())
	}
	for i := 0; i < 4; i++ {
		if d.At(i, i) != 2 {
			t.Fatalf("diag cell = %v, want 2", d.At(i, i))
		}
	}
	if got := h.Downsample(0); got.N != 8 {
		t.Fatal("invalid bins should clamp to N")
	}
}

func TestHeatmapASCIIAndPGM(t *testing.T) {
	h := NewHeatmap(4)
	h.Set(0, 0, 100)
	var sb strings.Builder
	if err := h.WriteASCII(&sb, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 || len(lines[0]) != 4 {
		t.Fatalf("ascii shape: %q", sb.String())
	}
	if lines[0][0] != '@' {
		t.Fatalf("hot cell should be darkest, got %q", lines[0][0])
	}
	var pgm strings.Builder
	if err := h.WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pgm.String(), "P2\n4 4\n255\n") {
		t.Fatalf("pgm header: %q", pgm.String()[:20])
	}
}

func TestHeatmapInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero size should panic")
		}
	}()
	NewHeatmap(0)
}

func TestSeriesNoisiness(t *testing.T) {
	smooth := &Series{Name: "smooth"}
	noisy := &Series{Name: "noisy"}
	for i := 0; i < 50; i++ {
		smooth.Append(float64(i), 50)
		v := 50.0
		if i%2 == 0 {
			v = 80
		} else {
			v = 20
		}
		noisy.Append(float64(i), v)
	}
	if smooth.Noisiness() != 0 {
		t.Fatalf("smooth noisiness = %v", smooth.Noisiness())
	}
	if noisy.Noisiness() < 0.5 {
		t.Fatalf("noisy noisiness = %v, want > 0.5", noisy.Noisiness())
	}
	if noisy.Mean() != 50 {
		t.Fatalf("mean = %v", noisy.Mean())
	}
	var empty Series
	if empty.Noisiness() != 0 || empty.Mean() != 0 {
		t.Fatal("empty series should be quiet")
	}
}

func TestStackedChartTSV(t *testing.T) {
	c := NewStackedChart("LWP utilization")
	u := &Series{Name: "user"}
	s := &Series{Name: "system"}
	for i := 0; i < 3; i++ {
		u.Append(float64(i), 90)
		s.Append(float64(i), 5)
	}
	c.Add(u)
	c.Add(s)
	var sb strings.Builder
	if err := c.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time\tuser\tsystem\n") {
		t.Fatalf("header: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("rows: %q", out)
	}
	empty := NewStackedChart("empty")
	if err := empty.WriteTSV(&sb); err == nil {
		t.Fatal("empty chart should error")
	}
}

// TestStackedChartTSVAlignsByTime pins one row per distinct time across
// all series: a series that starts late keeps its values at their own
// times, and a series longer than the first still gets its last rows.
func TestStackedChartTSVAlignsByTime(t *testing.T) {
	c := NewStackedChart("ragged")
	short := &Series{Name: "short"}
	long := &Series{Name: "long"}
	late := &Series{Name: "late"}
	for i := 0; i < 3; i++ {
		short.Append(float64(i), 1)
	}
	for i := 0; i < 4; i++ {
		long.Append(float64(i), 2)
	}
	late.Append(2, 7)
	late.Append(3, 8)
	c.Add(short)
	c.Add(long)
	c.Add(late)
	var sb strings.Builder
	if err := c.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "time\tshort\tlong\tlate\n" +
		"0.000\t1.0000\t2.0000\t\n" +
		"1.000\t1.0000\t2.0000\t\n" +
		"2.000\t1.0000\t2.0000\t7.0000\n" +
		"3.000\t\t2.0000\t8.0000\n"
	if got := sb.String(); got != want {
		t.Fatalf("TSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 50, 100}, 100)
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("len = %d", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("ramp ends wrong: %q", s)
	}
	// Auto-scaling path.
	if Sparkline([]float64{0, 0}, 0) != "▁▁" {
		t.Fatal("all-zero should render floor")
	}
}

func TestWriteSparklines(t *testing.T) {
	c := NewStackedChart("CPU cores")
	a := &Series{Name: "cpu1"}
	a.Append(0, 10)
	c.Add(a)
	var sb strings.Builder
	if err := c.WriteSparklines(&sb, 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cpu1") || !strings.Contains(sb.String(), "CPU cores") {
		t.Fatalf("output: %q", sb.String())
	}
}
