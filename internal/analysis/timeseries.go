package analysis

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Series is one named time series (e.g. "LWP 18992 user%").
type Series struct {
	Name   string
	Times  []float64 // seconds
	Values []float64
}

// Append adds a point.
func (s *Series) Append(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Mean returns the mean value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Noisiness quantifies sample-to-sample jitter as the mean absolute
// first difference divided by the mean (the paper notes Figure 6's LWP
// series is visibly noisier than Figure 7's HWT series because
// /proc/<pid>/stat is not precise at 1 Hz).
func (s *Series) Noisiness() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	sumAbs := 0.0
	for i := 1; i < len(s.Values); i++ {
		d := s.Values[i] - s.Values[i-1]
		if d < 0 {
			d = -d
		}
		sumAbs += d
	}
	mean := s.Mean()
	if mean == 0 {
		return 0
	}
	return sumAbs / float64(len(s.Values)-1) / mean
}

// StackedChart is a set of series sharing a time axis, rendered as the
// paper's stacked idle/system/user utilization charts.
type StackedChart struct {
	Title  string
	Series []*Series
}

// NewStackedChart creates a chart.
func NewStackedChart(title string) *StackedChart { return &StackedChart{Title: title} }

// Add appends a series.
func (c *StackedChart) Add(s *Series) { c.Series = append(c.Series, s) }

// WriteTSV emits the chart as tab-separated columns (time, then one column
// per series), the load-into-anything format for regenerating Figures 6-7.
// There is one row per time in the sorted union of the series' times; a
// series with no sample at a row's time leaves its cell empty, so a thread
// that starts late or ends early never shifts into another row.
func (c *StackedChart) WriteTSV(w io.Writer) error {
	if len(c.Series) == 0 {
		return fmt.Errorf("analysis: chart %q has no series", c.Title)
	}
	var b strings.Builder
	b.WriteString("time")
	var times []float64
	at := make([]map[float64]float64, len(c.Series))
	for j, s := range c.Series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
		times = append(times, s.Times...)
		at[j] = make(map[float64]float64, len(s.Times))
		for i, t := range s.Times {
			if _, dup := at[j][t]; !dup && i < len(s.Values) {
				at[j][t] = s.Values[i]
			}
		}
	}
	b.WriteByte('\n')
	sort.Float64s(times)
	for _, t := range slices.Compact(times) {
		fmt.Fprintf(&b, "%.3f", t)
		for j := range c.Series {
			b.WriteByte('\t')
			if v, ok := at[j][t]; ok {
				fmt.Fprintf(&b, "%.4f", v)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sparkRamp is the unicode block ramp for terminal sparklines.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode strip scaled to [0,max].
func Sparkline(values []float64, max float64) string {
	if max <= 0 {
		for _, v := range values {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			max = 1
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := int(v / max * float64(len(sparkRamp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRamp) {
			idx = len(sparkRamp) - 1
		}
		b.WriteRune(sparkRamp[idx])
	}
	return b.String()
}

// WriteSparklines renders every series as "name  sparkline  mean%" rows,
// sorted by name, for terminal reproduction of the time-series figures.
func (c *StackedChart) WriteSparklines(w io.Writer, max float64) error {
	series := append([]*Series(nil), c.Series...)
	sort.Slice(series, func(i, j int) bool { return series[i].Name < series[j].Name })
	if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "%-24s %s  mean %6.2f\n", s.Name, Sparkline(s.Values, max), s.Mean()); err != nil {
			return err
		}
	}
	return nil
}
