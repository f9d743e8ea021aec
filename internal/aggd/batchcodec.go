package aggd

// The batch payload encoding (wire version 5, the only one): the
// bytes-per-sample format. A fixed-width layout spends most of its bytes on
// fields that barely change between samples of the same stream — 8-byte
// counters that tick up by single digits, float percentages that repeat,
// label strings resent on every event. This encoding removes that
// redundancy with a static table and two per-batch mechanisms:
//
//   - a static string table: the labels every monitor emits (Listing 2's
//     GPU metric names and the thread-kind labels) are part of the format,
//     so a ref below staticRefs names a table entry and no frame carries
//     those bytes — the static half of HPACK (RFC 7541, Appendix A);
//   - a field dictionary: every other string the batch carries (job, node,
//     any label not in the table) is emitted once, in first-use order, at
//     the head of the payload; events refer to it by varint ref, starting
//     at staticRefs;
//   - per-stream delta prediction: each event is encoded against the
//     previous sample of its own stream within the batch (LWP streams keyed
//     by TID, HWT by CPU, GPU by device+metric, Mem/IO as single streams).
//     Integer counters become zigzag varints of the difference (uint64
//     wraparound, so the mapping is bijective); float values become varints
//     of the byte-swapped XOR against the stream's previous bit pattern
//     (byte-swapping moves a "round" value's trailing zero mantissa bytes
//     into the varint's droppable high positions); event timestamps are
//     delta-of-delta coded on their raw bit patterns (zigzag varint of the
//     change in the uint64 difference between consecutive events' time
//     bits), because a steady sampling cadence makes the bit-space stride
//     between samples almost constant — the second difference is usually
//     zero and costs one byte.
//
// Prediction state resets at every batch boundary: a batch frame is
// self-contained, so a retried or reordered shipment decodes identically —
// the property the server's sequence dedup and the chaos soaks depend on.
//
// Decoding is strict enough that every accepted payload is in canonical
// form (minimal varints, dictionary exactly in first-use order with no
// duplicate, unused or table entries): decode∘encode is the identity on
// valid frames, which is what lets FuzzWireDecode pin the format
// byte-for-byte.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"zerosum/internal/export"
)

// maxDictStrings bounds a batch dictionary (and each entry's length) at 64Ki.
// The encoder enforces it so the decoder may reject bigger claims as hostile
// without ever breaking a legitimate sender.
const maxDictStrings = math.MaxUint16

// staticStrings is the wire's static string table. It is a literal, not a
// copy of gpu.MetricNames, and append-only: a ref is its index, so
// reordering or deleting an entry renumbers the format, and a new entry
// needs a new wire version.
var staticStrings = [...]string{
	// gpu.MetricNames, in Listing 2 order.
	"Clock Frequency, GLX (MHz)",
	"Clock Frequency, SOC (MHz)",
	"Device Busy %",
	"Energy Average (J)",
	"GFX Activity",
	"GFX Activity %",
	"Memory Activity",
	"Memory Busy %",
	"Memory Controller Activity",
	"Power Average (W)",
	"Temperature (C)",
	"UVD|VCN Activity",
	"Used GTT Bytes",
	"Used VRAM Bytes",
	"Used Visible VRAM Bytes",
	"Voltage (mV)",
	// The LWP kind labels core.Monitor emits.
	"Main",
	"OpenMP",
	"ZeroSum",
	"Other",
	"Main, OpenMP",
}

// staticRefs is the first ref past the table: the ref of a frame's first
// dictionary entry.
const staticRefs = uint64(len(staticStrings))

// staticIndex maps a table string to its ref.
var staticIndex = func() map[string]uint64 {
	m := make(map[string]uint64, len(staticStrings))
	for i, s := range staticStrings {
		m[s] = uint64(i)
	}
	return m
}()

func zigzag64(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// lwpPred is one LWP stream's prediction state: the previous sample's
// value fields, keyed by TID on both sides of the codec.
type lwpPred struct {
	userBits, sysBits                  uint64
	vctx, nvctx, minflt, majflt, nswap uint64
	cpu                                int64
}

type hwtPred struct {
	idleBits, sysBits, userBits uint64
}

type memPred struct {
	total, free, avail, rss, hwm uint64
}

type ioPred struct {
	rchar, wchar, syscr, syscw, rbytes, wbytes uint64
}

// predStreams holds the keyed predictor tables. Both codec directions embed
// one; the maps are cleared (retaining their buckets) at each batch
// boundary so warm reuse stays allocation-free. Predictor state lives in
// slices with the maps holding indices, so the per-event path pays one map
// hash (the lookup) and then mutates through a pointer — a map of structs
// would cost a second hash plus a full struct copy on every write-back.
type predStreams struct {
	lwpIdx map[int64]int32
	lwp    []lwpPred
	hwtIdx map[int64]int32
	hwt    []hwtPred
	gpu    map[uint64]uint64 // (gpu id << 32 | metric ref) -> previous value bits
}

func (s *predStreams) reset() {
	if s.lwpIdx == nil {
		s.lwpIdx = make(map[int64]int32)
		s.hwtIdx = make(map[int64]int32)
		s.gpu = make(map[uint64]uint64)
	} else {
		clear(s.lwpIdx)
		clear(s.hwtIdx)
		clear(s.gpu)
	}
	s.lwp = s.lwp[:0]
	s.hwt = s.hwt[:0]
}

// lwpFor returns the (pointer-stable for the duration of one event) LWP
// stream predictor for tid, zero-valued on first use.
//
//zerosum:hotpath
func (s *predStreams) lwpFor(tid int64) *lwpPred {
	if i, ok := s.lwpIdx[tid]; ok {
		return &s.lwp[i]
	}
	i := int32(len(s.lwp))
	s.lwp = append(s.lwp, lwpPred{})
	s.lwpIdx[tid] = i
	return &s.lwp[i]
}

//zerosum:hotpath
func (s *predStreams) hwtFor(cpu int64) *hwtPred {
	if i, ok := s.hwtIdx[cpu]; ok {
		return &s.hwt[i]
	}
	i := int32(len(s.hwt))
	s.hwt = append(s.hwt, hwtPred{})
	s.hwtIdx[cpu] = i
	return &s.hwt[i]
}

// scalarPred is the unkeyed per-batch prediction state, held on the stack of
// one encode or decode call.
type scalarPred struct {
	timeBits  uint64 // previous event's timestamp bits (any kind)
	timeDelta uint64 // previous event-to-event stride in bit space
	lastTID   int64  // previous LWP event's TID
	lastCPU   int64  // previous HWT event's CPU
	lastGPU   int64  // previous GPU event's device id
	mem       memPred
	io        ioPred
}

// appendTimeDelta encodes an event timestamp by delta-of-delta on the raw
// float bits: all arithmetic is uint64 wraparound, so the coding is exact
// and bijective for any bit pattern (NaNs included).
//
//zerosum:hotpath
func appendTimeDelta(dst []byte, tb uint64, sc *scalarPred) []byte {
	db := tb - sc.timeBits
	dst = appendUvarint(dst, zigzag64(int64(db-sc.timeDelta)))
	sc.timeDelta = db
	sc.timeBits = tb
	return dst
}

//zerosum:hotpath
func (d *decoder) timeDelta(sc *scalarPred) (uint64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	db := sc.timeDelta + uint64(unzigzag64(u))
	sc.timeDelta = db
	sc.timeBits += db
	return sc.timeBits, nil
}

// batchEncoder is the pooled scratch state of one appendBatchPayload call:
// the dictionary under construction and the body buffer the events render
// into while string refs are still being assigned (the dictionary must
// precede the events on the wire, but is only complete once the last event
// has been walked).
type batchEncoder struct {
	dict    map[string]uint64
	strs    []string
	body    []byte
	streams predStreams
}

var batchEncPool = sync.Pool{New: func() any { return new(batchEncoder) }}

func (e *batchEncoder) reset() {
	if e.dict == nil {
		e.dict = make(map[string]uint64)
	} else {
		clear(e.dict)
	}
	e.strs = e.strs[:0]
	e.body = e.body[:0]
	e.streams.reset()
}

// ref returns s's table ref, or interns s into the batch dictionary,
// assigning refs from staticRefs up in first-use order (the canonical order
// the decoder enforces).
func (e *batchEncoder) ref(s string) (uint64, error) {
	if r, ok := staticIndex[s]; ok {
		return r, nil
	}
	if r, ok := e.dict[s]; ok {
		return r, nil
	}
	if len(s) > maxDictStrings {
		return 0, fmt.Errorf("aggd: string field of %d bytes too long", len(s))
	}
	if len(e.strs) >= maxDictStrings {
		return 0, fmt.Errorf("aggd: batch dictionary exceeds %d strings", maxDictStrings)
	}
	r := staticRefs + uint64(len(e.strs))
	e.dict[s] = r
	e.strs = append(e.strs, s)
	return r, nil
}

// appendF64Delta encodes a value float against its stream predictor:
// byte-swapped XOR, so unchanged values cost one byte and "round" values a
// few. Returns the new bits for the predictor update.
//
//zerosum:hotpath
func appendF64Delta(dst []byte, v float64, prevBits uint64) ([]byte, uint64) {
	b := math.Float64bits(v)
	return appendUvarint(dst, bits.ReverseBytes64(b^prevBits)), b
}

// appendCtrDelta encodes a cumulative counter against its predictor as the
// zigzag varint of the wrapped difference — bijective on uint64, so the
// decoder recovers the exact value and re-encodes the exact bytes.
//
//zerosum:hotpath
func appendCtrDelta(dst []byte, v, prev uint64) []byte {
	return appendUvarint(dst, zigzag64(int64(v-prev)))
}

// appendBatchPayload appends the bare batch payload encoding.
//
//zerosum:hotpath
//zerosum:wire-encode batch
func appendBatchPayload(dst []byte, b *Batch) ([]byte, error) {
	e := batchEncPool.Get().(*batchEncoder)
	e.reset()
	body, err := e.appendBody(e.body[:0], b)
	if err != nil {
		batchEncPool.Put(e)
		return nil, err
	}
	e.body = body
	dst = appendUvarint(dst, uint64(len(e.strs)))
	for _, s := range e.strs {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = append(dst, body...)
	batchEncPool.Put(e)
	return dst, nil
}

// appendBody renders the post-dictionary section (origin, sequence, events)
// while assigning dictionary refs in first-use order.
//
//zerosum:hotpath
//zerosum:wire-encode batch
func (e *batchEncoder) appendBody(dst []byte, b *Batch) ([]byte, error) {
	jobRef, err := e.ref(b.Job)
	if err != nil {
		return nil, err
	}
	nodeRef, err := e.ref(b.Node)
	if err != nil {
		return nil, err
	}
	dst = appendUvarint(dst, jobRef)
	dst = appendUvarint(dst, nodeRef)
	dst = appendUvarint(dst, zigzag64(int64(b.Rank)))
	dst = appendUvarint(dst, b.Epoch)
	dst = appendUvarint(dst, b.Seq)
	dst = appendUvarint(dst, uint64(len(b.Events)))
	var sc scalarPred
	for i := range b.Events {
		if dst, err = e.appendEvent(dst, &sc, &b.Events[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

//zerosum:hotpath
//zerosum:wire-encode event
func (e *batchEncoder) appendEvent(dst []byte, sc *scalarPred, ev *export.Event) ([]byte, error) {
	tb := math.Float64bits(ev.TimeSec)
	switch ev.Kind {
	case export.EventLWP:
		l := ev.LWP
		if l == nil {
			return nil, fmt.Errorf("aggd: LWP event with nil payload")
		}
		kindRef, err := e.ref(l.Kind)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagLWP)
		dst = appendTimeDelta(dst, tb, sc)
		dst = appendUvarint(dst, zigzag64(int64(l.TID)-sc.lastTID))
		sc.lastTID = int64(l.TID)
		dst = appendUvarint(dst, kindRef)
		// State is an ASCII /proc state char, so its high bit is free to
		// carry the §3.3 stalled flag.
		st := l.State &^ 0x80
		if l.Stalled {
			st |= 0x80
		}
		dst = append(dst, st)
		p := e.streams.lwpFor(int64(l.TID))
		dst, p.userBits = appendF64Delta(dst, l.UserPct, p.userBits)
		dst, p.sysBits = appendF64Delta(dst, l.SysPct, p.sysBits)
		dst = appendCtrDelta(dst, l.VCtx, p.vctx)
		dst = appendCtrDelta(dst, l.NVCtx, p.nvctx)
		dst = appendCtrDelta(dst, l.MinFlt, p.minflt)
		dst = appendCtrDelta(dst, l.MajFlt, p.majflt)
		dst = appendCtrDelta(dst, l.NSwap, p.nswap)
		dst = appendUvarint(dst, zigzag64(int64(l.CPU)-p.cpu))
		p.vctx, p.nvctx, p.minflt, p.majflt, p.nswap = l.VCtx, l.NVCtx, l.MinFlt, l.MajFlt, l.NSwap
		p.cpu = int64(l.CPU)
	case export.EventHWT:
		h := ev.HWT
		if h == nil {
			return nil, fmt.Errorf("aggd: HWT event with nil payload")
		}
		dst = append(dst, tagHWT)
		dst = appendTimeDelta(dst, tb, sc)
		dst = appendUvarint(dst, zigzag64(int64(h.CPU)-sc.lastCPU))
		sc.lastCPU = int64(h.CPU)
		p := e.streams.hwtFor(int64(h.CPU))
		dst, p.idleBits = appendF64Delta(dst, h.IdlePct, p.idleBits)
		dst, p.sysBits = appendF64Delta(dst, h.SysPct, p.sysBits)
		dst, p.userBits = appendF64Delta(dst, h.UserPct, p.userBits)
	case export.EventGPU:
		g := ev.GPU
		if g == nil {
			return nil, fmt.Errorf("aggd: GPU event with nil payload")
		}
		metricRef, err := e.ref(g.Metric)
		if err != nil {
			return nil, err
		}
		dst = append(dst, tagGPU)
		dst = appendTimeDelta(dst, tb, sc)
		dst = appendUvarint(dst, zigzag64(int64(g.GPU)-sc.lastGPU))
		sc.lastGPU = int64(g.GPU)
		dst = appendUvarint(dst, metricRef)
		gk := uint64(uint32(g.GPU))<<32 | metricRef
		var vb uint64
		dst, vb = appendF64Delta(dst, g.Value, e.streams.gpu[gk])
		e.streams.gpu[gk] = vb
	case export.EventMem:
		m := ev.Mem
		if m == nil {
			return nil, fmt.Errorf("aggd: Mem event with nil payload")
		}
		dst = append(dst, tagMem)
		dst = appendTimeDelta(dst, tb, sc)
		p := &sc.mem
		dst = appendCtrDelta(dst, m.TotalKB, p.total)
		dst = appendCtrDelta(dst, m.FreeKB, p.free)
		dst = appendCtrDelta(dst, m.AvailKB, p.avail)
		dst = appendCtrDelta(dst, m.ProcRSSKB, p.rss)
		dst = appendCtrDelta(dst, m.ProcHWMKB, p.hwm)
		*p = memPred{total: m.TotalKB, free: m.FreeKB, avail: m.AvailKB, rss: m.ProcRSSKB, hwm: m.ProcHWMKB}
	case export.EventIO:
		io := ev.IO
		if io == nil {
			return nil, fmt.Errorf("aggd: IO event with nil payload")
		}
		dst = append(dst, tagIO)
		dst = appendTimeDelta(dst, tb, sc)
		p := &sc.io
		dst = appendCtrDelta(dst, io.RChar, p.rchar)
		dst = appendCtrDelta(dst, io.WChar, p.wchar)
		dst = appendCtrDelta(dst, io.SyscR, p.syscr)
		dst = appendCtrDelta(dst, io.SyscW, p.syscw)
		dst = appendCtrDelta(dst, io.ReadBytes, p.rbytes)
		dst = appendCtrDelta(dst, io.WriteBytes, p.wbytes)
		*p = ioPred{rchar: io.RChar, wchar: io.WChar, syscr: io.SyscR,
			syscw: io.SyscW, rbytes: io.ReadBytes, wbytes: io.WriteBytes}
	case export.EventHeartbeat:
		dst = append(dst, tagHeartbeat)
		dst = appendTimeDelta(dst, tb, sc)
	default:
		return nil, fmt.Errorf("aggd: unknown event kind %d", ev.Kind)
	}
	return dst, nil
}

// uvarint reads a canonical (minimal-length) base-128 varint. A non-minimal
// encoding — a redundant trailing zero group, or a tenth byte carrying bits
// past the 64th — is rejected so every accepted payload has exactly one
// byte representation. Delta encoding makes single-byte varints the common
// case by far, so that path is inlined here and the loop outlined: going
// through u8/need per byte was the top entry on the decode profile.
//
//zerosum:hotpath
func (d *decoder) uvarint() (uint64, error) {
	if off := d.off; off < len(d.buf) {
		if b := d.buf[off]; b < 0x80 {
			d.off = off + 1
			return uint64(b), nil
		}
	}
	return d.uvarintSlow()
}

//zerosum:hotpath
func (d *decoder) uvarintSlow() (uint64, error) {
	buf, off := d.buf, d.off
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if off >= len(buf) {
			d.off = off
			return 0, d.short(1)
		}
		b := buf[off]
		off++
		if i == 9 && b > 1 {
			d.off = off
			return 0, fmt.Errorf("aggd: varint overflows 64 bits at offset %d", off)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			d.off = off
			if b == 0 && i > 0 {
				return 0, fmt.Errorf("aggd: non-minimal varint at offset %d", off)
			}
			return v, nil
		}
		shift += 7
	}
	d.off = off
	return 0, fmt.Errorf("aggd: varint longer than 10 bytes at offset %d", off)
}

// appendUvarint is binary.AppendUvarint with the same single-byte fast path
// the decoder has: after delta prediction most fields fit in one byte, and
// the stdlib's general loop shows up on the encode profile.
//
//zerosum:hotpath
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

func (d *decoder) zigzag() (int64, error) {
	u, err := d.uvarint()
	return unzigzag64(u), err
}

// f64Delta decodes a value float against its stream predictor, returning
// the value and its bits (the predictor update).
//
//zerosum:hotpath
func (d *decoder) f64Delta(prevBits uint64) (float64, uint64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	b := bits.ReverseBytes64(u) ^ prevBits
	return math.Float64frombits(b), b, nil
}

//zerosum:hotpath
func (d *decoder) ctrDelta(prev uint64) (uint64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return prev + uint64(unzigzag64(u)), nil
}

// dictRef reads a string ref and resolves it.
//
//zerosum:hotpath
func (d *decoder) dictRef(bb *BatchBuf) (string, error) {
	r, err := d.uvarint()
	if err != nil {
		return "", err
	}
	return d.resolveRef(bb, r)
}

// resolveRef resolves a string ref: a table entry below staticRefs, else a
// dictionary entry under the canonical first-use order. A dictionary ref may
// only step one past the highest entry used so far, and the batch must end
// with every entry used. Anything else could not have come out of the
// encoder and is rejected.
//
//zerosum:hotpath
func (d *decoder) resolveRef(bb *BatchBuf, r uint64) (string, error) {
	if r < staticRefs {
		return staticStrings[r], nil
	}
	i := r - staticRefs
	if i >= uint64(len(bb.dict)) {
		return "", fmt.Errorf("aggd: dictionary ref %d of %d at offset %d", r, staticRefs+uint64(len(bb.dict)), d.off)
	}
	if i > uint64(bb.dictUsed) {
		return "", fmt.Errorf("aggd: dictionary ref %d out of first-use order at offset %d", r, d.off)
	}
	if i == uint64(bb.dictUsed) {
		bb.dictUsed++
	}
	return bb.dict[i], nil
}

// DecodeBatchPayloadInto parses a FrameBatch payload into bb and returns
// the arena's batch. See BatchBuf for the aliasing contract.
//
//zerosum:hotpath
//zerosum:wire-decode batch
func DecodeBatchPayloadInto(payload []byte, bb *BatchBuf) (*Batch, error) {
	bb.reset()
	d := &decoder{buf: payload}
	b := &bb.batch

	nStr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every dictionary entry costs at least its one-byte length prefix, so
	// a count the remaining bytes cannot hold is a lie; the encoder also
	// never emits more than maxDictStrings entries, so a bigger claim cannot
	// round-trip and is rejected as hostile.
	if nStr > maxDictStrings || int64(nStr) > int64(len(payload)-d.off) {
		return nil, fmt.Errorf("aggd: batch claims %d dictionary strings in %d bytes", nStr, len(payload)-d.off)
	}
	for i := uint64(0); i < nStr; i++ {
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxDictStrings {
			return nil, fmt.Errorf("aggd: dictionary string %d claims %d bytes", i, n)
		}
		raw, err := d.need(int(n))
		if err != nil {
			return nil, err
		}
		s, ok := bb.strs[string(raw)]
		if !ok {
			s = string(raw)
			if len(bb.strs) < maxInterned {
				bb.strs[s] = s
			}
		}
		if bb.dictSeen[s] {
			return nil, fmt.Errorf("aggd: duplicate dictionary string %q", s)
		}
		if _, ok := staticIndex[s]; ok {
			return nil, fmt.Errorf("aggd: dictionary string %q is in the static table", s)
		}
		bb.dictSeen[s] = true
		bb.dict = append(bb.dict, s)
	}

	if b.Job, err = d.dictRef(bb); err != nil {
		return nil, err
	}
	if b.Node, err = d.dictRef(bb); err != nil {
		return nil, err
	}
	rank, err := d.zigzag()
	if err != nil {
		return nil, err
	}
	b.Rank = int(rank)
	// Rank must survive the int32 round-trip the encoder applies; a wider
	// claim could not have been sent and would not re-encode canonically.
	if int64(int32(b.Rank)) != rank {
		return nil, fmt.Errorf("aggd: rank %d overflows int32", rank)
	}
	if b.Epoch, err = d.uvarint(); err != nil {
		return nil, err
	}
	if b.Seq, err = d.uvarint(); err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every event costs at least its tag byte plus one timestamp byte.
	const minEventLen = 2
	if int64(n)*minEventLen > int64(len(payload)-d.off) {
		return nil, fmt.Errorf("aggd: batch claims %d events in %d bytes", n, len(payload)-d.off)
	}
	var sc scalarPred
	events := b.Events
	for i := uint64(0); i < n; i++ {
		events = append(events, export.Event{})
		if err := decodeEventInto(d, &sc, bb, &events[len(events)-1]); err != nil {
			return nil, fmt.Errorf("aggd: event %d: %w", i, err)
		}
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("aggd: %d trailing bytes after batch", len(payload)-d.off)
	}
	if bb.dictUsed != len(bb.dict) {
		return nil, fmt.Errorf("aggd: %d of %d dictionary strings unused", len(bb.dict)-bb.dictUsed, len(bb.dict))
	}
	b.Events = events
	fixupEventPayloads(events, bb)
	return b, nil
}

// decodeEventInto decodes one event, appending its payload struct to
// the arena's per-kind slice. The event carries only Kind and TimeSec here;
// fixupEventPayloads wires the payload pointer once the slices stop moving.
//
//zerosum:hotpath
//zerosum:wire-decode event
func decodeEventInto(d *decoder, sc *scalarPred, bb *BatchBuf, ev *export.Event) error {
	tag, err := d.u8()
	if err != nil {
		return err
	}
	tb, err := d.timeDelta(sc)
	if err != nil {
		return err
	}
	ev.TimeSec = math.Float64frombits(tb)
	switch tag {
	case tagLWP:
		ev.Kind = export.EventLWP
		bb.lwp = append(bb.lwp, export.LWPSample{TimeSec: ev.TimeSec})
		l := &bb.lwp[len(bb.lwp)-1]
		dt, err := d.zigzag()
		if err != nil {
			return err
		}
		tid := sc.lastTID + dt
		sc.lastTID = tid
		l.TID = int(tid)
		if int64(int32(l.TID)) != tid {
			return fmt.Errorf("TID %d overflows int32", tid)
		}
		if l.Kind, err = d.dictRef(bb); err != nil {
			return err
		}
		st, err := d.u8()
		if err != nil {
			return err
		}
		l.State = st &^ 0x80
		l.Stalled = st&0x80 != 0
		p := bb.streams.lwpFor(tid)
		if l.UserPct, p.userBits, err = d.f64Delta(p.userBits); err != nil {
			return err
		}
		if l.SysPct, p.sysBits, err = d.f64Delta(p.sysBits); err != nil {
			return err
		}
		if l.VCtx, err = d.ctrDelta(p.vctx); err != nil {
			return err
		}
		if l.NVCtx, err = d.ctrDelta(p.nvctx); err != nil {
			return err
		}
		if l.MinFlt, err = d.ctrDelta(p.minflt); err != nil {
			return err
		}
		if l.MajFlt, err = d.ctrDelta(p.majflt); err != nil {
			return err
		}
		if l.NSwap, err = d.ctrDelta(p.nswap); err != nil {
			return err
		}
		dc, err := d.zigzag()
		if err != nil {
			return err
		}
		cpu := p.cpu + dc
		l.CPU = int(cpu)
		if int64(int32(l.CPU)) != cpu {
			return fmt.Errorf("CPU %d overflows int32", cpu)
		}
		p.vctx, p.nvctx, p.minflt, p.majflt, p.nswap = l.VCtx, l.NVCtx, l.MinFlt, l.MajFlt, l.NSwap
		p.cpu = cpu
	case tagHWT:
		ev.Kind = export.EventHWT
		bb.hwt = append(bb.hwt, export.HWTSample{TimeSec: ev.TimeSec})
		h := &bb.hwt[len(bb.hwt)-1]
		dc, err := d.zigzag()
		if err != nil {
			return err
		}
		cpu := sc.lastCPU + dc
		sc.lastCPU = cpu
		h.CPU = int(cpu)
		if int64(int32(h.CPU)) != cpu {
			return fmt.Errorf("CPU %d overflows int32", cpu)
		}
		p := bb.streams.hwtFor(cpu)
		if h.IdlePct, p.idleBits, err = d.f64Delta(p.idleBits); err != nil {
			return err
		}
		if h.SysPct, p.sysBits, err = d.f64Delta(p.sysBits); err != nil {
			return err
		}
		if h.UserPct, p.userBits, err = d.f64Delta(p.userBits); err != nil {
			return err
		}
	case tagGPU:
		ev.Kind = export.EventGPU
		bb.gpu = append(bb.gpu, export.GPUSample{TimeSec: ev.TimeSec})
		g := &bb.gpu[len(bb.gpu)-1]
		dg, err := d.zigzag()
		if err != nil {
			return err
		}
		id := sc.lastGPU + dg
		sc.lastGPU = id
		g.GPU = int(id)
		if int64(int32(g.GPU)) != id {
			return fmt.Errorf("GPU id %d overflows int32", id)
		}
		// The metric ref doubles as half the predictor key, so it is read
		// raw and then resolved.
		r, err := d.uvarint()
		if err != nil {
			return err
		}
		if g.Metric, err = d.resolveRef(bb, r); err != nil {
			return err
		}
		gk := uint64(uint32(g.GPU))<<32 | r
		var vb uint64
		if g.Value, vb, err = d.f64Delta(bb.streams.gpu[gk]); err != nil {
			return err
		}
		bb.streams.gpu[gk] = vb
	case tagMem:
		ev.Kind = export.EventMem
		bb.mem = append(bb.mem, export.MemSample{TimeSec: ev.TimeSec})
		m := &bb.mem[len(bb.mem)-1]
		p := &sc.mem
		if m.TotalKB, err = d.ctrDelta(p.total); err != nil {
			return err
		}
		if m.FreeKB, err = d.ctrDelta(p.free); err != nil {
			return err
		}
		if m.AvailKB, err = d.ctrDelta(p.avail); err != nil {
			return err
		}
		if m.ProcRSSKB, err = d.ctrDelta(p.rss); err != nil {
			return err
		}
		if m.ProcHWMKB, err = d.ctrDelta(p.hwm); err != nil {
			return err
		}
		*p = memPred{total: m.TotalKB, free: m.FreeKB, avail: m.AvailKB, rss: m.ProcRSSKB, hwm: m.ProcHWMKB}
	case tagIO:
		ev.Kind = export.EventIO
		bb.io = append(bb.io, export.IOSample{TimeSec: ev.TimeSec})
		io := &bb.io[len(bb.io)-1]
		p := &sc.io
		if io.RChar, err = d.ctrDelta(p.rchar); err != nil {
			return err
		}
		if io.WChar, err = d.ctrDelta(p.wchar); err != nil {
			return err
		}
		if io.SyscR, err = d.ctrDelta(p.syscr); err != nil {
			return err
		}
		if io.SyscW, err = d.ctrDelta(p.syscw); err != nil {
			return err
		}
		if io.ReadBytes, err = d.ctrDelta(p.rbytes); err != nil {
			return err
		}
		if io.WriteBytes, err = d.ctrDelta(p.wbytes); err != nil {
			return err
		}
		*p = ioPred{rchar: io.RChar, wchar: io.WChar, syscr: io.SyscR,
			syscw: io.SyscW, rbytes: io.ReadBytes, wbytes: io.WriteBytes}
	case tagHeartbeat:
		ev.Kind = export.EventHeartbeat
	default:
		return fmt.Errorf("unknown event tag %d", tag)
	}
	return nil
}
