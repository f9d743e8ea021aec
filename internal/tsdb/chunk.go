package tsdb

// chunk is one compressed run of a series. While it is the series' head it
// owns live codec state and accepts appends; seal() freezes it — after
// that the data is immutable and safe to read without the owning shard
// lock. A sealed chunk keeps only its bitstream: queries decode it.
type chunk struct {
	part   int64 // block this chunk belongs to: floorDiv(first t, block)*block
	w      bitWriter
	st     gState
	count  int
	tMin   int64
	tMax   int64
	sealed bool
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

// seal freezes the chunk. It runs when a series crosses a block boundary
// or the chunk fills, never on the steady append path.
func (c *chunk) seal() { c.sealed = true }
