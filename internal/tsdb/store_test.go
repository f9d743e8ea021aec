package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"zerosum/internal/core"
)

func testKey(rank, tid int, metric string) SeriesKey {
	return SeriesKey{Node: "node0", Rank: rank, TID: tid, Metric: metric}
}

func TestStoreAppendAndStats(t *testing.T) {
	st := NewStore(Options{Block: time.Minute})
	key := testKey(0, 1000, "lwp.nvctx")
	for i := 0; i < 100; i++ {
		st.Append("job1", key, int64(i)*1e9, float64(i))
	}
	js := st.JobStats("job1")
	if js.Samples != 100 || js.Series != 1 {
		t.Fatalf("stats = %+v, want 100 samples in 1 series", js)
	}
	if js.MaxTimeNanos != 99e9 {
		t.Fatalf("MaxTimeNanos = %d, want %d", js.MaxTimeNanos, int64(99e9))
	}
	// 100 seconds at a 1-minute block: the head sealed once.
	if js.SealedChunks != 1 {
		t.Fatalf("SealedChunks = %d, want 1", js.SealedChunks)
	}
	if js.Bytes == 0 || js.Bytes > 100*16 {
		t.Fatalf("Bytes = %d, want compressed but non-zero", js.Bytes)
	}
	if got := st.Jobs(); len(got) != 1 || got[0] != "job1" {
		t.Fatalf("Jobs() = %v", got)
	}
	if js := st.JobStats("nope"); js.Samples != 0 {
		t.Fatalf("unknown job stats = %+v", js)
	}
}

func TestStoreRetention(t *testing.T) {
	st := NewStore(Options{
		Block:     time.Minute,
		Retention: 2 * time.Minute,
	})
	key := testKey(0, 0, "mem.rss_kb")
	// Ten minutes of one-second samples: blocks 0..9, retention keeps the
	// newest two minutes.
	for i := 0; i < 600; i++ {
		st.Append("job1", key, int64(i)*1e9, float64(i))
	}
	js := st.JobStats("job1")
	if js.EvictedChunks == 0 || js.EvictedSamples == 0 {
		t.Fatalf("nothing evicted: %+v", js)
	}
	if js.Samples != 600 {
		t.Fatalf("Samples = %d (ingest counter must not shrink on eviction)", js.Samples)
	}
	// Everything older than maxT - retention is gone from queries.
	cutoff := int64(599e9) - int64(2*time.Minute)
	res, err := st.Query("job1", QueryOpts{
		Metric: "mem.rss_kb", Rank: -1, TID: -1,
		Start: minInt64 / 2, End: 600e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d series", len(res))
	}
	first := res[0].Points[0].T
	if first > cutoff+int64(time.Minute) {
		t.Fatalf("oldest surviving sample at %d, far beyond cutoff %d", first, cutoff)
	}
	if first >= cutoff && js.EvictedSamples+uint64(len(res[0].Points)) != 600 {
		t.Fatalf("evicted %d + surviving %d != 600", js.EvictedSamples, len(res[0].Points))
	}

	// A series that stops appending still ages out via EnforceRetention
	// when another series advances the job clock.
	st2 := NewStore(Options{Block: time.Minute, Retention: time.Minute})
	dead := testKey(1, 0, "gpu.utilization_pct")
	live := testKey(2, 0, "gpu.utilization_pct")
	for i := 0; i < 120; i++ {
		st2.Append("job2", dead, int64(i)*1e9, 1)
	}
	for i := 0; i < 600; i++ {
		st2.Append("job2", live, int64(i)*1e9, 2)
	}
	st2.EnforceRetention()
	res, err = st2.Query("job2", QueryOpts{
		Metric: "gpu.utilization_pct", Rank: 1, TID: -1, Start: 0, End: 600e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The dead series' sealed chunk (block 0) and its head (block 1) both
	// predate the horizon (TestEnforceRetentionEvictsDeadHead counts them).
	if len(res) == 1 {
		for _, p := range res[0].Points {
			if p.T < 60e9 {
				t.Fatalf("sample at %d survived a 1-minute retention with maxT=599s", p.T)
			}
		}
	}
}

// TestStoreLayoutGolden pins what a seeded append script leaves in the
// store: its accounting and the bytes of its ZSTB dump. The script walks
// every path that seals a head: block crossings, a chunk that fills at
// maxChunkSamples inside one block, a straggler older than its head's
// block, and a head that is already past the retention cutoff when a late
// sample seals it. A change to how series hold their chunks must leave
// every pinned value as it is.
func TestStoreLayoutGolden(t *testing.T) {
	st := NewStore(Options{Block: 10 * time.Second, Retention: 30 * time.Second})
	rng := rand.New(rand.NewSource(48))
	var keys []SeriesKey
	for _, node := range []string{"n0", "n1"} {
		for rank := 0; rank < 3; rank++ {
			for _, metric := range []string{"lwp.user_pct", "mem.rss_kb"} {
				keys = append(keys, SeriesKey{Node: node, Rank: rank, TID: 100 + rank, Metric: metric})
			}
		}
	}
	vals := make([]float64, len(keys))
	step := func(i int) float64 {
		vals[i] += float64(rng.Intn(7)-3) + rng.Float64()/8
		return vals[i]
	}
	// keys[0] goes quiet at 15 s with its head in block [10 s, 20 s).
	for sec := 0; sec < 100; sec++ {
		for i, k := range keys {
			if i == 0 && sec > 15 {
				continue
			}
			st.Append("job", k, int64(sec)*1e9+rng.Int63n(2e6), step(i))
		}
		if sec%7 == 3 && sec > 10 {
			i := 1 + rng.Intn(len(keys)-1)
			st.Append("job", keys[i], int64(sec-10)*1e9+rng.Int63n(1e9), step(i))
		}
	}
	// keys[1] floods block [100 s, 110 s): its chunk fills and seals early.
	for j := 0; j < 20000; j++ {
		st.Append("job", keys[1], 100e9+int64(j)*400e3, step(1))
	}
	// keys[0] wakes at 109 s: its head (newest sample at 15 s) seals while
	// already past the cutoff.
	st.Append("job", keys[0], 109e9, step(0))
	for sec := 110; sec < 125; sec++ {
		for i, k := range keys {
			st.Append("job", k, int64(sec)*1e9+rng.Int63n(2e6), step(i))
		}
	}

	js := st.JobStats("job")
	want := JobStats{Series: 12, SealedChunks: 26, Samples: 21309, Bytes: 147175,
		EvictedChunks: 101, EvictedSamples: 1017, MaxTimeNanos: 124001886310}
	if js != want {
		t.Errorf("JobStats = %+v\nwant       %+v", js, want)
	}
	blob, err := st.MarshalJob("job")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), "6c32338ac5a1a39f8ded22d2286e65529ffe799191ce7fb04697d58662abe531"; got != want {
		t.Errorf("MarshalJob: %d bytes, sha256 %s, want %s", len(blob), got, want)
	}
}

// TestEnforceRetentionEvictsDeadHead: a series that stops receiving samples
// ages out whole, its unsealed head included, once another series carries
// the job clock past its horizon; the eviction is counted and the emptied
// series takes samples again.
func TestEnforceRetentionEvictsDeadHead(t *testing.T) {
	st := NewStore(Options{Block: time.Minute, Retention: 2 * time.Minute})
	live, dead := testKey(0, 0, "m"), testKey(1, 0, "m")
	for i := 0; i < 30; i++ {
		st.Append("job", dead, int64(i)*1e9, 1)
	}
	for i := 0; i < 600; i++ {
		st.Append("job", live, int64(i)*1e9, 2)
	}
	st.EnforceRetention()
	// The horizon is 599 s - 2 min = 479 s: the live series keeps blocks 7
	// and 8 and its head, and loses blocks 0..6 (420 samples); the dead
	// series' head, newest sample at 29 s, goes too.
	js := st.JobStats("job")
	if js.EvictedChunks != 8 || js.EvictedSamples != 450 || js.SealedChunks != 2 {
		t.Fatalf("evicted %d chunks / %d samples with %d sealed, want 8 / 450 with 2",
			js.EvictedChunks, js.EvictedSamples, js.SealedChunks)
	}
	q := QueryOpts{Metric: "m", Rank: 1, TID: -1, Start: 0, End: 700e9}
	if res, err := st.Query("job", q); err != nil || len(res) != 0 {
		t.Fatalf("dead series still answers: %v %v", res, err)
	}
	if q.Rank = 0; len(mustQuery(t, st, q)[0].Points) != 180 {
		t.Fatal("the live series lost samples inside its horizon")
	}
	st.Append("job", dead, 650e9, 3)
	if q.Rank = 1; len(mustQuery(t, st, q)[0].Points) != 1 {
		t.Fatal("the emptied series does not take a new sample")
	}
}

func mustQuery(t *testing.T, st *Store, q QueryOpts) []SeriesResult {
	t.Helper()
	res, err := st.Query("job", q)
	if err != nil || len(res) != 1 {
		t.Fatalf("query %+v: %d series, %v", q, len(res), err)
	}
	return res
}

func TestStoreRetentionDisabled(t *testing.T) {
	st := NewStore(Options{Block: time.Second})
	key := testKey(0, 0, "hwt.idle_pct")
	for i := 0; i < 1000; i++ {
		st.Append("job1", key, int64(i)*1e9, float64(i))
	}
	st.EnforceRetention()
	res, err := st.Query("job1", QueryOpts{Metric: "hwt.idle_pct", Rank: -1, TID: -1, Start: 0, End: 1000e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 1000 {
		t.Fatalf("retention disabled but samples missing: %d series", len(res))
	}
}

func TestStoreSnapshots(t *testing.T) {
	st := NewStore(Options{})
	if st.SnapshotCount("job1") != 0 {
		t.Fatal("phantom snapshots")
	}
	mk := func(rank int) core.Snapshot {
		var s core.Snapshot
		s.Rank = rank
		return s
	}
	st.SetSnapshot("job1", "nodeB", 1, mk(1), map[int]uint64{0: 10})
	st.SetSnapshot("job1", "nodeA", 0, mk(0), nil)
	st.SetSnapshot("job1", "nodeB", 1, mk(1), map[int]uint64{0: 99}) // replace
	if got := st.SnapshotCount("job1"); got != 2 {
		t.Fatalf("SnapshotCount = %d, want 2", got)
	}
	var order []int
	st.EachSnapshot("job1", func(node string, rank int, snap *core.Snapshot, row map[int]uint64) {
		order = append(order, rank)
		if rank == 1 && row[0] != 99 {
			t.Fatalf("stale row after replace: %v", row)
		}
		if snap.Rank != rank {
			t.Fatalf("snapshot/rank mismatch: %d vs %d", snap.Rank, rank)
		}
	})
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("visit order %v, want [0 1]", order)
	}
	st.EachSnapshot("ghost", func(string, int, *core.Snapshot, map[int]uint64) {
		t.Fatal("callback for unknown job")
	})
}

func TestStoreConcurrentAppend(t *testing.T) {
	st := NewStore(Options{Block: time.Second})
	const ranks, perRank = 8, 500
	done := make(chan struct{})
	for r := 0; r < ranks; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			key := testKey(r, 1000+r, "lwp.user_pct")
			for i := 0; i < perRank; i++ {
				st.Append("job1", key, int64(i)*1e8, float64(i%100))
			}
		}(r)
	}
	for r := 0; r < ranks; r++ {
		<-done
	}
	js := st.JobStats("job1")
	if js.Samples != ranks*perRank {
		t.Fatalf("Samples = %d, want %d", js.Samples, ranks*perRank)
	}
	res, err := st.Query("job1", QueryOpts{
		Metric: "lwp.user_pct", Rank: -1, TID: -1, Start: 0, End: perRank * 1e8,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sr := range res {
		total += len(sr.Points)
	}
	if len(res) != ranks || total != ranks*perRank {
		t.Fatalf("query saw %d series / %d points, want %d / %d", len(res), total, ranks, ranks*perRank)
	}
}

func TestBlockMarshalRoundTrip(t *testing.T) {
	st := NewStore(Options{Block: 10 * time.Second})
	type stream struct {
		key SeriesKey
		pts []Point
	}
	var streams []stream
	for r := 0; r < 3; r++ {
		for _, metric := range []string{"lwp.nvctx", "mem.free_kb"} {
			s := stream{key: testKey(r, 1000+r, metric)}
			for i := 0; i < 37; i++ {
				p := Point{T: int64(i) * 1e9, V: float64(r*1000 + i)}
				s.pts = append(s.pts, p)
				st.Append("jobX", s.key, p.T, p.V)
			}
			streams = append(streams, s)
		}
	}
	blob, err := st.MarshalJob("jobX")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := UnmarshalBlocks(blob)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Job != "jobX" {
		t.Fatalf("job = %q", bs.Job)
	}
	if len(bs.Series) != len(streams) {
		t.Fatalf("decoded %d series, want %d", len(bs.Series), len(streams))
	}
	decoded := make(map[SeriesKey][]Point)
	for _, s := range bs.Series {
		var pts []Point
		for _, c := range s.Chunks {
			got, err := c.Samples()
			if err != nil {
				t.Fatalf("chunk decode for %+v: %v", s.Key, err)
			}
			if len(got) != c.Count {
				t.Fatalf("chunk count %d but %d samples", c.Count, len(got))
			}
			pts = append(pts, got...)
		}
		decoded[s.Key] = pts
	}
	for _, s := range streams {
		got := decoded[s.key]
		if len(got) != len(s.pts) {
			t.Fatalf("series %+v: %d samples, want %d", s.key, len(got), len(s.pts))
		}
		for i := range got {
			if got[i].T != s.pts[i].T || !sameBits(got[i].V, s.pts[i].V) {
				t.Fatalf("series %+v sample %d: got %+v want %+v", s.key, i, got[i], s.pts[i])
			}
		}
	}
	// Determinism: same store contents, same bytes.
	blob2, err := st.MarshalJob("jobX")
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("MarshalJob is not deterministic")
	}
	if _, err := st.MarshalJob("ghost"); err == nil {
		t.Fatal("marshalling an unknown job succeeded")
	}
}

func TestUnmarshalBlocksRejectsDamage(t *testing.T) {
	st := NewStore(Options{Block: time.Second})
	st.Append("j", testKey(0, 0, "m"), 1e9, 3.5)
	st.Append("j", testKey(0, 0, "m"), 2e9, 4.5)
	blob, err := st.MarshalJob("j")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBlocks(blob); err != nil {
		t.Fatalf("clean blob rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad-version", func(b []byte) []byte { b[4] = 99; return b }},
		{"flipped-body", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
	} {
		mutated := tc.mut(append([]byte(nil), blob...))
		if _, err := UnmarshalBlocks(mutated); err == nil {
			t.Errorf("%s: damaged blob accepted", tc.name)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Block != DefaultBlock || o.Retention != 0 {
		t.Fatalf("defaults = %+v", o)
	}
	// A negative retention keeps everything, as zero does.
	o = Options{Block: time.Second, Retention: -time.Hour}.withDefaults()
	if o.Block != time.Second || o.Retention != 0 {
		t.Fatalf("Options{Block: 1s, Retention: -1h} = %+v", o)
	}
}

func TestFloorDiv(t *testing.T) {
	for _, tc := range []struct{ a, b, want int64 }{
		{7, 5, 1}, {-7, 5, -2}, {-5, 5, -1}, {0, 5, 0}, {5, 5, 1},
	} {
		if got := floorDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("floorDiv(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
