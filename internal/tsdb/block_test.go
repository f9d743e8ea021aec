package tsdb

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// blockTestSamples is a deterministic multi-series sample stream that
// crosses several block boundaries (and therefore seals chunks) at the
// test's 10s block / 2s downsample options.
func blockTestSamples() map[SeriesKey][]Point {
	out := make(map[SeriesKey][]Point)
	for r := 0; r < 3; r++ {
		for _, metric := range []string{"lwp.user_pct", "mem.free_kb"} {
			key := SeriesKey{Node: fmt.Sprintf("n%02d", r%2), Rank: r, TID: 100 + r, Metric: metric}
			for i := 0; i < 120; i++ {
				out[key] = append(out[key], Point{
					T: int64(i) * 5e8, // 0.5s cadence: 60s of data, 6 block crossings
					V: float64(r*1000+i) + 0.25,
				})
			}
		}
	}
	return out
}

// TestImportBlockSetRoundTrip replays a dump into a fresh store and checks
// the re-import is equivalent: same marshalled bytes under the same
// options, same sample count.
func TestImportBlockSetRoundTrip(t *testing.T) {
	opts := Options{Block: 10 * time.Second, Downsample: 2 * time.Second}
	src := NewStore(opts)
	n := 0
	for key, pts := range blockTestSamples() {
		for _, p := range pts {
			src.Append("job", key, p.T, p.V)
			n++
		}
	}
	blob, err := src.MarshalJob("job")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := UnmarshalBlocks(blob)
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore(opts)
	imported, err := dst.ImportBlockSet(bs)
	if err != nil {
		t.Fatal(err)
	}
	if imported != n {
		t.Fatalf("imported %d samples, want %d", imported, n)
	}
	again, err := dst.MarshalJob("job")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-imported store marshals differently from the original dump")
	}

	if imported, err := dst.ImportBlockSet(nil); imported != 0 || err != nil {
		t.Fatalf("nil import: %d, %v", imported, err)
	}
}
