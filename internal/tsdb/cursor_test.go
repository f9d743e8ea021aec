package tsdb

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestQueryCursorMatchesScan interleaves appends and queries on one store
// and checks every answer against scanQuery, which decodes every chunk from
// its first sample. Appends cross blocks, carry stragglers, age chunks out
// under retention and leave one series dead until EnforceRetention evicts
// its head. Queries slide forward with the clock, as a dashboard's do, and
// jump back and forth, which is what exposes a read cursor used for a
// window that starts before the samples it skips.
func TestQueryCursorMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(Options{Block: 10 * time.Second, Retention: 35 * time.Second})
		var keys []SeriesKey
		for rank := 0; rank < 3; rank++ {
			for tid := 0; tid < 3; tid++ {
				keys = append(keys, SeriesKey{Node: "n", Rank: rank, TID: tid, Metric: "m"})
			}
		}
		dead := keys[len(keys)-1] // stops at tick 40
		resumed := 0
		for tick := int64(0); tick < 120; tick++ {
			now := tick * 1e9
			for _, key := range keys {
				if key == dead && tick >= 40 {
					continue
				}
				ts := now
				if tick > 4 && rng.Intn(10) == 0 {
					ts -= rng.Int63n(4)*1e9 + 1 // a straggler, off the second grid
				}
				// Small integers keep sums exact in any fold order.
				st.Append("job", key, ts, float64(rng.Intn(100)))
			}
			if tick%30 == 29 {
				st.EnforceRetention()
			}
			for q := rng.Intn(3); q >= 0; q-- {
				opts := QueryOpts{Metric: "m", Rank: -1, TID: -1, Agg: AggKind(rng.Intn(len(aggNames)))}
				if rng.Intn(4) == 0 {
					opts.Rank = rng.Intn(3)
				}
				if rng.Intn(3) == 0 {
					opts.Start = rng.Int63n(now + 1) // a jump, backward as often as not
				} else {
					opts.Start = now - []int64{0, 1, 3, 5, 10}[rng.Intn(5)]*1e9 // sliding
				}
				opts.End = opts.Start + []int64{1, 2, 5, 10, 30}[rng.Intn(5)]*1e9
				opts.Step = []int64{0, 0, 1, 2, 5}[rng.Intn(5)] * 1e9
				resumed += countResumable(st, opts)
				got, err := st.Query("job", opts)
				if err != nil {
					t.Fatal(err)
				}
				want := scanQuery(st, "job", opts)
				if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d tick %d %+v:\n query %v\n scan  %v", seed, tick, opts, got, want)
				}
			}
		}
		if resumed == 0 {
			t.Fatalf("seed %d: no query resumed from a read cursor", seed)
		}
	}
}

// countResumable counts the series of the job whose read cursor a query
// with opts would resume from past the head's first sample.
func countResumable(st *Store, opts QueryOpts) int {
	n := 0
	st.lookupJob("job").eachShard(func(sh *seriesShard) {
		for _, s := range sh.series {
			if s.rc != nil && s.rc.i > 0 && s.rc.before <= opts.Start {
				n++
			}
		}
	})
	return n
}

// TestSealedBitsSurviveHeadRefill pins the seal's single allocation: the
// head keeps its buffer, emptied, and the sealed chunk's copy of the bits
// stays as it was while the head writes new samples over that buffer.
func TestSealedBitsSurviveHeadRefill(t *testing.T) {
	const block = int64(10e9)
	var s Series
	for i := int64(0); i < 10; i++ {
		s.append(i*1e9, float64(i%7), block, -1)
	}
	before := append([]byte(nil), s.head.w.bytes()...)
	buf := &s.head.w.buf[0]
	for i := int64(10); i < 20; i++ {
		s.append(i*1e9, float64(1000+i*i), block, -1) // the first of these seals
	}
	if len(s.sealed) != 1 || !bytes.Equal(s.sealed[0].data, before) {
		t.Fatalf("sealed %d chunks; first holds %x, the head held %x", len(s.sealed), s.sealed[0].data, before)
	}
	if &s.head.w.buf[0] != buf {
		t.Fatal("the head did not keep its buffer at seal")
	}
	if &s.sealed[0].data[0] == buf || cap(s.sealed[0].data) != len(before) {
		t.Fatalf("the sealed chunk is not an exact-size copy (cap %d for %d bytes)", cap(s.sealed[0].data), len(before))
	}
	pts, err := decodeAll(s.sealed[0].data, s.sealed[0].count)
	if err != nil || len(pts) != 10 || pts[9] != (Point{T: 9e9, V: 2}) {
		t.Fatalf("sealed chunk decodes to %v, %v", pts, err)
	}
}

// TestHeatmapRefusesOversize: a heatmap's cells are rows × buckets, and
// each row may have up to maxQueryBuckets of them; the whole matrix is held
// to that bound too.
func TestHeatmapRefusesOversize(t *testing.T) {
	st := NewStore(Options{})
	for rank := 0; rank < 4; rank++ {
		for i := int64(0); i < 5; i++ {
			st.Append("job", SeriesKey{Node: "n", Rank: rank, Metric: "m"}, i*1e9, float64(i))
		}
	}
	opts := QueryOpts{Metric: "m", Rank: -1, TID: -1, Start: 0, End: 5e9}
	opts.Step = (opts.End - opts.Start) / (maxQueryBuckets / 3) // 4 rows of ~350 k buckets
	if _, err := st.Query("job", opts); err != nil {
		t.Fatalf("the query itself is within bounds: %v", err)
	}
	if hm, err := st.Heatmap("job", opts); err == nil {
		t.Fatalf("a %d × %d heatmap was built", len(hm.Rows), hm.Buckets)
	}
	opts.Step = (opts.End - opts.Start) / (maxQueryBuckets / 5) // 4 rows of ~210 k
	if hm, err := st.Heatmap("job", opts); err != nil || len(hm.Rows) != 4 {
		t.Fatalf("a heatmap within the bound was refused: %v", err)
	}
}
