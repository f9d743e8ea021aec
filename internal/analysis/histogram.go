package analysis

import (
	"fmt"
	"io"
	"strings"
)

// CompareDistributions renders two labelled samples as side-by-side
// histograms over a shared range — the Figure 8 view.
func CompareDistributions(w io.Writer, labelA string, a []float64, labelB string, b []float64, buckets int) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("analysis: empty sample for distribution comparison")
	}
	all := append(append([]float64{}, a...), b...)
	s := Summarize(all)
	lo, hi := s.Min, s.Max
	if lo == hi {
		lo -= 0.5
		hi += 0.5
	}
	span := hi - lo
	hi += span * 1e-9
	bin := func(xs []float64) []int {
		counts := make([]int, buckets)
		for _, x := range xs {
			idx := int((x - lo) / (hi - lo) * float64(buckets))
			if idx < 0 {
				idx = 0
			}
			if idx >= buckets {
				idx = buckets - 1
			}
			counts[idx]++
		}
		return counts
	}
	ca, cb := bin(a), bin(b)
	peak := 1
	for i := range ca {
		if ca[i] > peak {
			peak = ca[i]
		}
		if cb[i] > peak {
			peak = cb[i]
		}
	}
	const width = 20
	if _, err := fmt.Fprintf(w, "  %22s  %-*s | %-*s\n", "", width, labelA, width, labelB); err != nil {
		return err
	}
	for i := 0; i < buckets; i++ {
		bLo := lo + (hi-lo)*float64(i)/float64(buckets)
		bHi := lo + (hi-lo)*float64(i+1)/float64(buckets)
		barA := strings.Repeat("#", ca[i]*width/peak)
		barB := strings.Repeat("#", cb[i]*width/peak)
		if _, err := fmt.Fprintf(w, "  [%9.4f,%9.4f)  %-*s | %-*s\n",
			bLo, bHi, width, barA, width, barB); err != nil {
			return err
		}
	}
	return nil
}
