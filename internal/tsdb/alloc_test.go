package tsdb

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestAppendZeroAllocSteadyState pins the hot-path contract (the
// //zerosum:hotpath annotations' runtime counterpart, like the monitor's
// tick gate): once a series is warm and its head chunk has buffer slack,
// Store.Append allocates nothing — no boxing, no map churn, no bitstream
// growth inside the measured window.
func TestAppendZeroAllocSteadyState(t *testing.T) {
	st := NewStore(Options{Block: 24 * time.Hour}) // no seal inside the test
	key := SeriesKey{Node: "node0", Rank: 0, TID: 1000, Metric: "lwp.user_pct"}
	clock := int64(0)
	tick := func() {
		clock += 1e9
		st.Append("job", key, clock, float64(clock%7))
	}
	// Warm up: create job, shard map, series, head; then hand the head a
	// buffer with enough slack that append-doubling cannot fire while we
	// measure. Reaching into the head is fine — the test owns the store.
	for i := 0; i < 64; i++ {
		tick()
	}
	db := st.lookupJob("job")
	sh := db.shardFor(key)
	sh.mu.Lock()
	head := &sh.series[key].head
	buf := make([]byte, len(head.w.buf), 1<<20)
	copy(buf, head.w.buf)
	head.w.buf = buf
	sh.mu.Unlock()

	if got := testing.AllocsPerRun(500, tick); got != 0 {
		t.Fatalf("steady-state Store.Append allocates %.1f times per call, want 0", got)
	}
}

// TestChunkAppendZeroAlloc gates the inner layer on its own: with buffer
// capacity available, head.append (codec + bit writer) is allocation-free.
func TestChunkAppendZeroAlloc(t *testing.T) {
	var h head
	h.w.buf = make([]byte, 0, 1<<20)
	clock := int64(0)
	if got := testing.AllocsPerRun(1000, func() {
		clock += 1e9
		h.append(clock, float64(clock%13))
	}); got != 0 {
		t.Fatalf("head.append allocates %.1f times per call, want 0", got)
	}
}

// TestSealedChunkRetainsOnlyItsBits pins what the store keeps per sample:
// a store filled at 1 Hz through three default blocks retains its Gorilla
// bitstreams, chunk headers and series, and nothing precomputed beside
// them: about 4.9 B/sample on amd64 (1.4 B of it bitstream), with the limit
// an eighth above that. Per-bucket aggregates stored at seal would add
// about 15 B/sample; a heap-allocated header per chunk and a head buffer
// regrown by doubling added 1.3 B/sample together.
func TestSealedChunkRetainsOnlyItsBits(t *testing.T) {
	const series, seconds = 2000, 3*60 + 1 // three sealed blocks, one sample in the head
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	st := NewStore(Options{})
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < series; s++ {
		key := SeriesKey{Node: "node0", Rank: s / 20, TID: s, Metric: "lwp.user_pct"}
		v := 50.0
		for i := 0; i < seconds; i++ {
			v += float64(rng.Intn(5) - 2)
			st.Append("job", key, int64(i)*1e9, v)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	js := st.JobStats("job")
	runtime.KeepAlive(st)

	if js.SealedChunks != 3*series {
		t.Fatalf("%d sealed chunks, want %d", js.SealedChunks, 3*series)
	}
	perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(js.Samples)
	t.Logf("%.1f B retained per sample (%.1f B of it bitstream)", perSample, float64(js.Bytes)/float64(js.Samples))
	if limit := 5.5; perSample > limit {
		t.Fatalf("the store retains %.1f B per sample, want at most %.1f", perSample, limit)
	}
}
