package tsdb

// chunk is one compressed run of a series: bounds, sample count and Gorilla
// bitstream. Sealed chunks live by value in Series.sealed, which retention
// compacts in place, so no pointer to one may leave the shard lock; their
// data is an exact-size copy made at seal, never mutated, and may be shared.
// The head is read through a view whose data aliases its live buffer. A
// query that decodes the head also moves the series' read cursor: queries
// hold the shard's exclusive lock, the one appends take, so that write is
// as safe as an append.
type chunk struct {
	part       int64 // block this chunk belongs to: floorDiv(first t, block)*block
	tMin, tMax int64
	count      int
	data       []byte
}

// overlaps reports whether any sample of the chunk can fall in [start, end).
func (c *chunk) overlaps(start, end int64) bool {
	return c.count > 0 && c.tMin < end && c.tMax >= start
}

// head is a series' open chunk, inline in Series: bounds plus the live codec
// state appends encode against. count == 0 means the series has none open.
type head struct {
	part, tMin, tMax int64
	count            int
	w                bitWriter
	st               gState
}

// append encodes one sample. Caller (the series) holds the shard lock and
// has already decided this chunk stays open.
//
//zerosum:hotpath
func (h *head) append(t int64, v float64) {
	h.st.appendSample(&h.w, h.count, t, v)
	if h.count == 0 || t < h.tMin {
		h.tMin = t
	}
	if h.count == 0 || t > h.tMax {
		h.tMax = t
	}
	h.count++
}

// view is the head as a chunk. Its data aliases the buffer appends keep
// writing, so it is valid only under the shard lock.
func (h *head) view() chunk {
	return chunk{part: h.part, tMin: h.tMin, tMax: h.tMax, count: h.count, data: h.w.bytes()}
}

// readCursor is where a query may start decoding a head instead of at its
// first sample: the decoder's state after the head's first i samples, all
// of them earlier than before. The head only appends and never rewrites a
// bit, so a cursor stays exact until seal or retention replaces the head,
// which drops it; a straggler lands after the cursor and is decoded as
// before.
type readCursor struct {
	pos    int // bit position of sample i
	st     gState
	i      int
	before int64
}
