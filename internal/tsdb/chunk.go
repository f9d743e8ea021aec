package tsdb

// chunk is one compressed run of a series. While it is the series' head it
// owns live codec state and accepts appends; seal() freezes it — after
// that the data is immutable, safe to read without the owning shard lock,
// and carries rollups so coarse queries never re-decode it.
type chunk struct {
	part   int64 // block this chunk belongs to: floorDiv(first t, block)*block
	w      bitWriter
	st     gState
	count  int
	tMin   int64
	tMax   int64
	sealed bool
	// rollups are per-Downsample-bucket aggregates, sorted by bucket start,
	// computed once at seal.
	rollups []Rollup
}

// Rollup is one downsample bucket's aggregate of a sealed chunk. Sum and
// Count reconstruct the mean; First/Last (with their timestamps) serve
// last-value and delta aggregations without decompression.
type Rollup struct {
	Bucket int64 // bucket start, sample-clock nanos
	Count  uint32
	Min    float64
	Max    float64
	Sum    float64
	First  float64
	Last   float64
	FirstT int64
	LastT  int64
}

// newChunk opens a head chunk for the block containing t.
func newChunk(part int64) *chunk {
	c := &chunk{part: part}
	c.st.init()
	return c
}

// append encodes one sample. Caller (the series) holds the shard lock and
// has already decided this chunk stays open.
//
//zerosum:hotpath
func (c *chunk) append(t int64, v float64) {
	c.st.appendSample(&c.w, c.count, t, v)
	if c.count == 0 || t < c.tMin {
		c.tMin = t
	}
	if c.count == 0 || t > c.tMax {
		c.tMax = t
	}
	c.count++
}

// overlaps reports whether any sample of the chunk can fall in [start, end).
func (c *chunk) overlaps(start, end int64) bool {
	return c.count > 0 && c.tMin < end && c.tMax >= start
}

// bytes is the chunk's current encoded size.
func (c *chunk) bytes() int { return len(c.w.buf) }

// seal freezes the chunk and computes its rollups on ds-wide buckets.
// Sealing decodes the chunk once; it runs when a series crosses a block
// boundary (rate-limited by construction), never on the steady append path.
//
//zerosum:coldpath
func (c *chunk) seal(ds int64) {
	if c.sealed {
		return
	}
	c.sealed = true
	if c.count == 0 {
		return
	}
	// Samples arrive in bucket order except for stragglers, so the rollups
	// build as a sorted slice: a sample nearly always lands in the last
	// rollup or opens the next one, and a straggler's bucket is found (or
	// inserted in place) by walking back from the end.
	n := floorDiv(c.tMax, ds) - floorDiv(c.tMin, ds) + 1
	if n <= 0 || n > int64(c.count) {
		n = int64(c.count)
	}
	c.rollups = make([]Rollup, 0, n)
	var it gIter
	it.init(c.w.bytes(), c.count)
	for it.Next() {
		t, v := it.At()
		bucket := floorDiv(t, ds) * ds
		i := len(c.rollups)
		for i > 0 && c.rollups[i-1].Bucket > bucket {
			i--
		}
		if i == 0 || c.rollups[i-1].Bucket != bucket {
			c.rollups = append(c.rollups, Rollup{})
			copy(c.rollups[i+1:], c.rollups[i:])
			c.rollups[i] = Rollup{Bucket: bucket, Min: v, Max: v,
				First: v, Last: v, FirstT: t, LastT: t}
			i++
		}
		r := &c.rollups[i-1]
		r.Count++
		r.Sum += v
		if v < r.Min {
			r.Min = v
		}
		if v > r.Max {
			r.Max = v
		}
		if t < r.FirstT {
			r.FirstT, r.First = t, v
		}
		if t >= r.LastT {
			r.LastT, r.Last = t, v
		}
	}
	// The chunk encoded its own samples; decoding them back cannot fail.
	// (A decode error here would mean a writer bug, not bad input — the
	// rollups just come out shorter, and queries fall back to raw decode.)
}
