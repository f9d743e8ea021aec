package tsdb

// Series is one metric stream's storage: an appending head chunk, held
// inline, plus the sealed chunks behind it, held by value. All mutation
// happens under the owning shard's lock in the Store; the methods here do
// no locking of their own, which is what lets the hot append path stay
// lock- and allocation-free.
type Series struct {
	Key SeriesKey

	head   head
	sealed []chunk
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
	h := &s.head
	if h.count > 0 && (t >= h.part+block || h.count >= maxChunkSamples) {
		// Forward boundary crossing (or a full chunk) seals; a straggler
		// older than the head's block still lands in the head, because a
		// sealed chunk is immutable by contract.
		ev = s.seal(cutoff)
	}
	if h.count == 0 {
		h.part = floorDiv(t, block) * block
	}
	h.append(t, v)
	return ev
}

// seal closes the head at a block crossing or a full chunk. Retention runs
// first, so a head that has itself aged out is evicted, not sealed; else
// it joins the sealed chunks as an exact-size copy of its bits. The next
// head's buffer starts at that size, about what a stationary series needs.
//
//zerosum:coldpath
func (s *Series) seal(cutoff int64) evicted {
	n := len(s.head.w.buf)
	ev := s.retain(cutoff)
	if c := s.head.view(); c.count > 0 {
		c.data = append(make([]byte, 0, n), c.data...)
		s.sealed = append(s.sealed, c)
	}
	s.head = head{w: bitWriter{buf: make([]byte, 0, n)}}
	return ev
}

// retain drops what predates cutoff: sealed chunks whose newest sample is
// older, and the head of a series that stopped receiving samples, whose
// buffer it releases. It runs at seal points and from EnforceRetention,
// never on the steady path.
//
//zerosum:coldpath
func (s *Series) retain(cutoff int64) evicted {
	var ev evicted
	if cutoff < 0 {
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
	clear(s.sealed[len(keep):]) // release the dropped chunks' bits to the GC
	s.sealed = keep
	if h := &s.head; h.count > 0 && h.tMax < cutoff {
		ev.chunks++
		ev.samples += h.count
		*h = head{}
	}
	return ev
}

// chunks visits the series' chunks oldest-sealed first, head last.
func (s *Series) chunks(fn func(c chunk)) {
	for _, c := range s.sealed {
		fn(c)
	}
	if s.head.count > 0 {
		fn(s.head.view())
	}
}

// bytes is the series' current encoded footprint.
func (s *Series) bytes() int {
	n := 0
	s.chunks(func(c chunk) { n += len(c.data) })
	return n
}
