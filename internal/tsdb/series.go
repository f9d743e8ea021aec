package tsdb

// Series is one metric stream's storage: an appending head chunk plus the
// sealed, immutable chunks behind it. All mutation happens under the
// owning shard's lock in the Store; the methods here do no locking of
// their own, which is what lets the hot append path stay lock- and
// allocation-free.
type Series struct {
	Key SeriesKey

	head    *chunk
	sealed  []*chunk
	samples uint64 // appended over the series' lifetime
}

// evicted reports what retention dropped in one append.
type evicted struct {
	chunks  int
	samples int
}

// append lands one sample, sealing the head into a block and enforcing
// retention when the sample clock crosses a block boundary. block and
// cutoff come resolved from the store so the steady path does no option
// math. cutoff < 0 disables retention. The caller holds the shard lock.
//
//zerosum:hotpath
func (s *Series) append(t int64, v float64, block, cutoff int64) evicted {
	var ev evicted
	h := s.head
	if h == nil {
		h = newChunk(floorDiv(t, block) * block)
		s.head = h
	} else if t >= h.part+block && h.count > 0 || h.count >= maxChunkSamples {
		// Forward boundary crossing (or a full chunk) seals; a straggler
		// older than the head's block still lands in the head, because a
		// sealed chunk is immutable by contract.
		h.seal()
		s.sealed = append(s.sealed, h)
		ev = s.retain(cutoff)
		h = newChunk(floorDiv(t, block) * block)
		s.head = h
	}
	h.append(t, v)
	s.samples++
	return ev
}

// retain drops sealed chunks whose newest sample predates cutoff. It runs
// at seal points and from EnforceRetention, never on the steady path.
//
//zerosum:coldpath
func (s *Series) retain(cutoff int64) evicted {
	var ev evicted
	if cutoff < 0 || len(s.sealed) == 0 {
		return ev
	}
	keep := s.sealed[:0]
	for _, c := range s.sealed {
		if c.tMax < cutoff {
			ev.chunks++
			ev.samples += c.count
			continue
		}
		keep = append(keep, c)
	}
	for i := len(keep); i < len(s.sealed); i++ {
		s.sealed[i] = nil // release the dropped chunks to the GC
	}
	s.sealed = keep
	return ev
}

// chunks visits the series' chunks oldest-sealed first, head last.
func (s *Series) chunks(fn func(c *chunk)) {
	for _, c := range s.sealed {
		fn(c)
	}
	if s.head != nil {
		fn(s.head)
	}
}

// bytes is the series' current encoded footprint.
func (s *Series) bytes() int {
	n := 0
	s.chunks(func(c *chunk) { n += c.bytes() })
	return n
}
