package analysis

import (
	"strings"
	"testing"
)

func TestCompareDistributions(t *testing.T) {
	a := []float64{26.88, 26.89, 26.89, 26.90}
	b := []float64{26.93, 26.94, 26.94, 26.95}
	var sb strings.Builder
	if err := CompareDistributions(&sb, "baseline", a, "zerosum", b, 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "zerosum") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if strings.Count(out, "\n") != 7 { // header + 6 buckets
		t.Fatalf("rows:\n%s", out)
	}
	// Shifted samples occupy different buckets: the first bucket has bars
	// only on the left column.
	lines := strings.Split(out, "\n")
	first := lines[1]
	parts := strings.Split(first, "|")
	if !strings.Contains(parts[0], "#") || strings.Contains(parts[1], "#") {
		t.Fatalf("first bucket should be baseline-only: %q", first)
	}
	if err := CompareDistributions(&sb, "x", nil, "y", b, 3); err == nil {
		t.Fatal("empty sample should error")
	}
}
