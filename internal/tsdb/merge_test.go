package tsdb

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

// bucketize computes a point list's per-bucket aggregates by the same rules
// seal uses, as an independent reference for MergeRollups.
func bucketize(ds int64, pts []Point) []Rollup {
	acc := make(map[int64]*Rollup)
	for _, p := range pts {
		bucket := floorDiv(p.T, ds) * ds
		r := acc[bucket]
		if r == nil {
			r = &Rollup{Bucket: bucket, Min: p.V, Max: p.V,
				First: p.V, Last: p.V, FirstT: p.T, LastT: p.T}
			acc[bucket] = r
		}
		r.Count++
		r.Sum += p.V
		if p.V < r.Min {
			r.Min = p.V
		}
		if p.V > r.Max {
			r.Max = p.V
		}
		if p.T < r.FirstT {
			r.FirstT, r.First = p.T, p.V
		}
		if p.T >= r.LastT {
			r.LastT, r.Last = p.T, p.V
		}
	}
	out := make([]Rollup, 0, len(acc))
	for _, r := range acc {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// TestMergeRollups splits one sample stream across two rollup lists every
// way that matters — disjoint buckets, shared buckets, empty sides — and
// checks the merge equals the aggregates of the combined stream.
func TestMergeRollups(t *testing.T) {
	const ds = int64(10)
	// Timestamps are all distinct, so First/Last resolution is unambiguous
	// and the reference cannot depend on visit order.
	var a, b []Point
	for i := int64(0); i < 40; i++ {
		p := Point{T: i*3 + 1, V: float64((i*7)%13) - 5}
		if i%3 == 0 {
			a = append(a, p)
		} else {
			b = append(b, p)
		}
	}
	// One bucket only a holds, one only b holds.
	a = append(a, Point{T: 500, V: 2})
	b = append(b, Point{T: 600, V: -9})

	got := MergeRollups(bucketize(ds, a), bucketize(ds, b))
	want := bucketize(ds, append(append([]Point(nil), a...), b...))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged rollups diverge from combined-stream aggregates:\n got %+v\nwant %+v", got, want)
	}

	if got := MergeRollups(nil, bucketize(ds, b)); !reflect.DeepEqual(got, bucketize(ds, b)) {
		t.Fatal("merging with an empty left side is not identity")
	}
	if got := MergeRollups(bucketize(ds, a), nil); !reflect.DeepEqual(got, bucketize(ds, a)) {
		t.Fatal("merging with an empty right side is not identity")
	}
}

// mergeTestSamples is a deterministic multi-series sample stream that
// crosses several block boundaries (and therefore seals chunks) at the
// test's 10s block / 2s downsample options.
func mergeTestSamples() map[SeriesKey][]Point {
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

// TestMergeBlockSetsByteIdentity is the canonicality gate for the tree's
// storage layer: per-leaf dumps — with every sample present on exactly one
// leaf, plus some present on BOTH (an agent stream replayed through two
// leaf incarnations) — merge into a block set that marshals byte-identical
// to a flat store that ingested the stream once.
func TestMergeBlockSetsByteIdentity(t *testing.T) {
	opts := Options{Block: 10 * time.Second, Downsample: 2 * time.Second}
	flat := NewStore(opts)
	leafA := NewStore(opts)
	leafB := NewStore(opts)

	for key, pts := range mergeTestSamples() {
		for i, p := range pts {
			flat.Append("job", key, p.T, p.V)
			// Interleave ownership by time; every 10th sample lands on both
			// leaves to exercise the (series, timestamp) dedup.
			if i%2 == 0 || i%10 == 0 {
				leafA.Append("job", key, p.T, p.V)
			}
			if i%2 == 1 || i%10 == 0 {
				leafB.Append("job", key, p.T, p.V)
			}
		}
	}

	dump := func(st *Store) *BlockSet {
		t.Helper()
		blob, err := st.MarshalJob("job")
		if err != nil {
			t.Fatal(err)
		}
		bs, err := UnmarshalBlocks(blob)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}

	merged, err := MergeBlockSets(opts, dump(leafA), dump(leafB))
	if err != nil {
		t.Fatal(err)
	}
	mergedBlob, err := marshalBlockSet(merged)
	if err != nil {
		t.Fatal(err)
	}
	flatBlob, err := flat.MarshalJob("job")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBlob, flatBlob) {
		t.Fatalf("merged leaf dumps are not byte-identical to the flat store "+
			"(merged %d bytes, flat %d bytes)", len(mergedBlob), len(flatBlob))
	}

	// Nil sets are skipped; merging a dump with nothing is still canonical.
	solo, err := MergeBlockSets(opts, nil, dump(flat))
	if err != nil {
		t.Fatal(err)
	}
	soloBlob, err := marshalBlockSet(solo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(soloBlob, flatBlob) {
		t.Fatal("identity merge of a flat dump is not byte-identical")
	}

	if _, err := MergeBlockSets(opts, dump(leafA), &BlockSet{Job: "other"}); err == nil {
		t.Fatal("merging block sets of different jobs did not error")
	}
}

// TestImportBlockSetRoundTrip replays a dump into a fresh store and checks
// the re-import is equivalent: same marshalled bytes under the same
// options, same sample count.
func TestImportBlockSetRoundTrip(t *testing.T) {
	opts := Options{Block: 10 * time.Second, Downsample: 2 * time.Second}
	src := NewStore(opts)
	n := 0
	for key, pts := range mergeTestSamples() {
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
