package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// scanQuery is the brute-force reading of a query: walk every series of
// the job, keep those whose whole key matches the selector, decode all of
// their samples, and bucket them. It knows nothing of the metric index,
// the single-shard shortcut or scratch reuse.
func scanQuery(st *Store, job string, opts QueryOpts) []SeriesResult {
	db := st.lookupJob(job)
	if db == nil {
		return nil
	}
	var out []SeriesResult
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for key, s := range sh.series {
			if key.Metric != opts.Metric ||
				opts.Node != "" && key.Node != opts.Node ||
				opts.Rank >= 0 && key.Rank != opts.Rank ||
				opts.TID >= 0 && key.TID != opts.TID {
				continue
			}
			var in []Point
			s.chunks(func(c chunk) {
				pts, err := decodeAll(c.data, c.count)
				if err != nil {
					panic(err)
				}
				for _, p := range pts {
					if p.T >= opts.Start && p.T < opts.End {
						in = append(in, p)
					}
				}
			})
			sort.SliceStable(in, func(i, j int) bool { return in[i].T < in[j].T })
			if opts.Step > 0 {
				acc := map[int64]*bucketAcc{}
				for _, p := range in {
					b := (p.T - opts.Start) / opts.Step
					if acc[b] == nil {
						acc[b] = &bucketAcc{}
					}
					acc[b].addSample(p.T, p.V)
				}
				in = in[:0]
				for b, a := range acc {
					in = append(in, Point{T: opts.Start + b*opts.Step, V: a.value(opts.Agg)})
				}
				sort.Slice(in, func(i, j int) bool { return in[i].T < in[j].T })
			}
			if len(in) > 0 {
				out = append(out, SeriesResult{Key: key, Points: in})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

var indexTestOpts = Options{Block: 10 * time.Second}

// indexTestSamples is a small job with everything a selector can tell
// apart: three metrics, three nodes, rank 0 present on two nodes, several
// tids per rank, 45 s of 1 Hz samples (four sealed blocks and a head) with
// a few stragglers. Values are small integers so sums are exact however
// they are associated (chunk order against time order).
func indexTestSamples() (keys []SeriesKey, samples map[SeriesKey][]Point) {
	rng := rand.New(rand.NewSource(42))
	samples = map[SeriesKey][]Point{}
	origins := []struct {
		node string
		rank int
	}{{"n0", 0}, {"n1", 0}, {"n1", 1}, {"n2", 2}, {"n0", 3}, {"n2", 4}, {"n1", 5}}
	for _, metric := range []string{"a", "b", "c"} {
		for _, o := range origins {
			for _, tid := range []int{0, 100, 101} {
				if metric == "c" && tid != 0 {
					continue // a per-rank metric beside two per-thread ones
				}
				key := SeriesKey{Node: o.node, Rank: o.rank, TID: tid, Metric: metric}
				keys = append(keys, key)
				for i := 0; i < 45; i++ {
					ts := int64(i) * 1e9
					if rng.Intn(15) == 0 && i > 3 {
						ts -= 3e9 + 1 // a straggler, off the second grid
					}
					samples[key] = append(samples[key], Point{T: ts, V: float64(rng.Intn(1000))})
				}
			}
		}
	}
	return keys, samples
}

// indexTestStores fills one store per way series come into existence.
func indexTestStores(t *testing.T) map[string]*Store {
	t.Helper()
	keys, samples := indexTestSamples()
	stores := map[string]*Store{}

	byAppend := NewStore(indexTestOpts)
	for _, key := range keys {
		for _, p := range samples[key] {
			byAppend.Append("job", key, p.T, p.V)
		}
	}
	stores["Append"] = byAppend

	// Three batches per origin, so Resolve both creates series and finds
	// them again.
	byBatch := NewStore(indexTestOpts)
	for part := 0; part < 3; part++ {
		for _, key := range keys {
			if key.TID != 0 || key.Metric != "a" {
				continue // one batch per origin, opened on its first key
			}
			ba := byBatch.BeginBatch("job", key.Node, key.Rank)
			for _, k2 := range keys {
				if k2.Node != key.Node || k2.Rank != key.Rank {
					continue
				}
				s := ba.Resolve(k2)
				for _, p := range samples[k2][part*15 : part*15+15] {
					ba.Append(s, p.T, p.V)
				}
			}
			ba.End()
		}
	}
	stores["BeginBatch"] = byBatch

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
	byImport := NewStore(indexTestOpts)
	if _, err := byImport.ImportBlockSet(dump(byAppend)); err != nil {
		t.Fatal(err)
	}
	stores["ImportBlockSet"] = byImport

	return stores
}

func randomSelector(rng *rand.Rand) QueryOpts {
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	opts := QueryOpts{
		Metric: []string{"a", "b", "c", "ghost"}[rng.Intn(4)],
		Rank:   -1, TID: -1,
		Agg: AggKind(rng.Intn(len(aggNames))),
	}
	if rng.Intn(2) == 0 {
		opts.Node = []string{"n0", "n1", "n2", "nowhere"}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		opts.Rank = pick(0, 1, 2, 3, 4, 5, 6)
	}
	if rng.Intn(3) == 0 {
		opts.TID = pick(0, 100, 101, 999)
	}
	opts.Start = int64(pick(0, 0, 2, 7, 10, 20)) * 1e9
	opts.End = opts.Start + int64(pick(1, 4, 10, 20, 60))*1e9
	opts.Step = int64(pick(0, 2, 3, 10)) * 1e9
	return opts
}

func TestQueryIndexMatchesScan(t *testing.T) {
	for name, st := range indexTestStores(t) {
		// An aligned step over the four sealed blocks and the head, for
		// every aggregation: each bucket folds whole decoded chunks.
		if js := st.JobStats("job"); js.SealedChunks == 0 {
			t.Fatalf("%s: no sealed chunks", name)
		}
		for agg := range AggKind(len(aggNames)) {
			opts := QueryOpts{Metric: "a", Rank: -1, TID: -1, Start: 0, End: 50e9, Step: 10e9, Agg: agg}
			got, err := st.Query("job", opts)
			if err != nil {
				t.Fatalf("%s %v: %v", name, agg, err)
			}
			if want := scanQuery(st, "job", opts); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s aligned %v:\n index %v\n scan  %v", name, agg, got, want)
			}
		}

		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 600; i++ {
			opts := randomSelector(rng)
			desc := fmt.Sprintf("%s query %d %+v", name, i, opts)

			got, err := st.Query("job", opts)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			want := scanQuery(st, "job", opts)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n index %v\n scan  %v", desc, got, want)
			}
			if opts.Step == 0 {
				continue
			}

			hm, err := st.Heatmap("job", opts)
			if err != nil {
				t.Fatalf("%s: heatmap: %v", desc, err)
			}
			if len(hm.Rows) != len(want) {
				t.Fatalf("%s: heatmap has %d rows, scan %d", desc, len(hm.Rows), len(want))
			}
			for r, sr := range want {
				cells := map[int64]float64{}
				for _, p := range sr.Points {
					cells[(p.T-opts.Start)/opts.Step] = p.V
				}
				if hm.Rows[r] != sr.Key || int64(len(hm.Values[r])) != hm.Buckets {
					t.Fatalf("%s: heatmap row %d is %v with %d cells", desc, r, hm.Rows[r], len(hm.Values[r]))
				}
				for b, v := range hm.Values[r] {
					if w, ok := cells[int64(b)]; ok != !math.IsNaN(v) || ok && v != w {
						t.Fatalf("%s: heatmap cell (%d, %d) = %v, scan %v (present %v)", desc, r, b, v, w, ok)
					}
				}
			}

			k := 1 + rng.Intn(8)
			top, err := st.TopK("job", opts, k)
			if err != nil {
				t.Fatalf("%s: topk: %v", desc, err)
			}
			whole := opts
			whole.Step = opts.End - opts.Start
			var wantTop []TopEntry
			for _, sr := range scanQuery(st, "job", whole) {
				wantTop = append(wantTop, TopEntry{Key: sr.Key, Value: sr.Points[0].V})
			}
			sort.Slice(wantTop, func(i, j int) bool {
				if wantTop[i].Value != wantTop[j].Value {
					return wantTop[i].Value > wantTop[j].Value
				}
				return keyLess(wantTop[i].Key, wantTop[j].Key)
			})
			if len(wantTop) > k {
				wantTop = wantTop[:k]
			}
			if len(top) != len(wantTop) || len(top) > 0 && !reflect.DeepEqual(top, wantTop) {
				t.Fatalf("%s: top-%d\n index %v\n scan  %v", desc, k, top, wantTop)
			}
		}
	}
}

// TestIndexHoldsEverySeriesOnce checks the index against the series map
// directly, for every way of filling a store.
func TestIndexHoldsEverySeriesOnce(t *testing.T) {
	for name, st := range indexTestStores(t) {
		db := st.lookupJob("job")
		for i := range db.shards {
			sh := &db.shards[i]
			sh.mu.Lock()
			indexed := 0
			for metric, list := range sh.byMetric {
				for _, s := range list {
					indexed++
					if s.Key.Metric != metric || sh.series[s.Key] != s {
						t.Errorf("%s shard %d: index entry %v under %q is not the shard's series", name, i, s.Key, metric)
					}
				}
			}
			if indexed != len(sh.series) {
				t.Errorf("%s shard %d: %d index entries for %d series", name, i, indexed, len(sh.series))
			}
			sh.mu.Unlock()
		}
	}
}

// TestQueryLocksOnlyTheOwningShard pins the node+rank shortcut: with every
// other shard of the job locked (as ingest would hold them), a query that
// names its origin still answers.
func TestQueryLocksOnlyTheOwningShard(t *testing.T) {
	st := indexTestStores(t)["Append"]
	db := st.lookupJob("job")
	own := db.shardForOrigin("n2", 4)
	for i := range db.shards {
		if sh := &db.shards[i]; sh != own {
			sh.mu.Lock()
			defer sh.mu.Unlock()
		}
	}
	done := make(chan []SeriesResult, 1)
	go func() {
		res, _ := st.Query("job", QueryOpts{Metric: "a", Node: "n2", Rank: 4, TID: -1, Start: 0, End: 60e9})
		done <- res
	}()
	select {
	case res := <-done:
		if len(res) != 3 {
			t.Fatalf("got %d series for (n2, rank 4, metric a), want its 3 tids", len(res))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a node+rank query waited on a shard that cannot hold its series")
	}
}

// TestQueryAllocsFollowMatches bounds a query's allocations by what it
// selects: 64 matching series in a job of more than 20 000.
func TestQueryAllocsFollowMatches(t *testing.T) {
	const ranks, metrics = 64, 320
	st := NewStore(Options{})
	for r := 0; r < ranks; r++ {
		ba := st.BeginBatch("big", "node", r)
		for m := 0; m < metrics; m++ {
			s := ba.Resolve(SeriesKey{Node: "node", Rank: r, Metric: fmt.Sprintf("m%03d", m)})
			for i := int64(0); i < 20; i++ {
				ba.Append(s, i*1e9, float64(m))
			}
		}
		ba.End()
	}
	if js := st.JobStats("big"); js.Series < 20000 {
		t.Fatalf("job holds %d series, the test wants at least 20000", js.Series)
	}
	opts := QueryOpts{Metric: "m007", Rank: -1, TID: -1, Start: 0, End: 20e9, Step: 5e9}
	var res []SeriesResult
	allocs := testing.AllocsPerRun(20, func() {
		res, _ = st.Query("big", opts)
	})
	if len(res) != ranks {
		t.Fatalf("query matched %d series, want %d", len(res), ranks)
	}
	// One point slice per matching series, the result slice's doublings,
	// the bucket scratch and the sort: a small multiple of the matches,
	// and nowhere near the job's series count.
	if limit := float64(2*ranks + 16); allocs > limit {
		t.Fatalf("a %d-series query in a %d-series job allocates %.0f times, want at most %.0f",
			ranks, ranks*metrics, allocs, limit)
	}
}
