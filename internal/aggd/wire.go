// Package aggd is ZeroSum's cluster aggregation tier: the networked
// collection service the paper's export path anticipates (§3.6 forwards
// periodic samples to a data service; §6 names LDMS/ADIOS2 integration as
// future work). A per-process Agent subscribes to the monitor's
// export.Stream, buffers samples in a bounded ring and ships them in
// batches over HTTP to a Server, which maintains per-job sharded stores of
// every (node, rank)'s live samples and final snapshots, folds them
// through report.Aggregate into the allocation-wide JobSummary, and serves
// Prometheus /metrics plus JSON summary/heatmap endpoints — the per-node
// collector → aggregator → per-job view pipeline of job-specific
// monitoring stacks.
package aggd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"zerosum/internal/core"
	"zerosum/internal/export"
)

// Wire framing (all little endian). Every message on the wire is one frame:
//
//	magic   "ZSAG" (4 bytes)
//	version uint8  (WireVersion; any other value is not a frame)
//	kind    uint8  (FrameBatch | FrameSnapshot | FrameRollup)
//	length  uint32 (payload bytes that follow)
//	crc     uint32 (CRC-32C of the payload)
//	payload
//
// A FrameBatch payload is the string table + dictionary + per-stream delta
// encoding of batchcodec.go; a FrameSnapshot payload is the JSON encoding of
// SnapshotMsg (snapshots are sent once per rank, so compactness does not
// matter there); a FrameRollup payload is the leaf-to-parent shipment of
// rollup.go.
// Multiple frames may be concatenated in one HTTP request body or a .zsbp
// file (FrameLog).
//
// The checksum exists because the aggregation path must stay trustworthy
// under the link-flap and partial-write regimes an always-on monitor lives
// through: a bit flip inside a float64 payload still decodes "successfully"
// and silently poisons the job view, so every payload is integrity-checked
// before it is parsed. There is one wire version. The header's version byte
// is a format guard, not a negotiation: a reader accepts exactly
// WireVersion, and a frame stamped with anything else is resynced past and
// fails its request like any other corrupt frame.
const (
	// WireVersion is the one framing version senders emit and readers accept.
	WireVersion = 5
	// MaxFramePayload bounds a frame so a corrupt or hostile length field
	// cannot make the server allocate unbounded memory.
	MaxFramePayload = 64 << 20

	// FrameHeaderLen is the fixed byte length of a frame header (magic +
	// version + kind + payload length + payload CRC); frame[FrameHeaderLen:]
	// is the payload of a single-frame buffer built by AppendBatchFrame.
	FrameHeaderLen = 14
)

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64, so checksumming stays off the overhead budget).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var wireMagic = [4]byte{'Z', 'S', 'A', 'G'}

// FrameKind discriminates frame payloads.
type FrameKind byte

// Frame kinds. FrameRollup (kind 3) is declared in rollup.go alongside its
// codec: a leaf aggregator's pre-merged upstream shipment of admitted
// batches and snapshot documents.
const (
	FrameBatch    FrameKind = 1
	FrameSnapshot FrameKind = 2
)

// Origin identifies the stream a frame belongs to.
type Origin struct {
	Job  string
	Node string
	Rank int
}

// Batch is one shipment of stream events from a single rank's agent. Seq
// increases by one per batch sent, letting the server detect loss and
// deduplicate retried shipments. Epoch identifies one incarnation of the
// sending agent: a restarted agent starts a new epoch with Seq back at 0,
// which the server must not mistake for a replay of old sequence numbers.
type Batch struct {
	Origin
	Epoch  uint64
	Seq    uint64
	Events []export.Event
}

// SnapshotMsg carries a rank's end-of-run (or periodic) report snapshot
// plus its row of the communication matrix: CommRow[src] = bytes this rank
// received from src (internal/mpi's Figure 5 accounting).
type SnapshotMsg struct {
	Origin
	Snapshot core.Snapshot
	CommRow  map[int]uint64
}

// batch payload event tags; distinct from export.EventKind so the wire
// stays stable if the in-process enum is reordered.
const (
	tagLWP byte = iota + 1
	tagHWT
	tagGPU
	tagMem
	tagIO
	tagHeartbeat
)

func appendHeader(dst []byte, kind FrameKind) []byte {
	dst = append(dst, wireMagic[:]...)
	dst = append(dst, WireVersion, byte(kind))
	dst = binary.LittleEndian.AppendUint32(dst, 0)  // length, patched by finishFrame
	return binary.LittleEndian.AppendUint32(dst, 0) // crc, patched by finishFrame
}

func finishFrame(frame []byte) ([]byte, error) {
	payload := len(frame) - FrameHeaderLen
	if payload > MaxFramePayload {
		return nil, fmt.Errorf("aggd: frame payload %d exceeds %d", payload, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(frame[6:10], uint32(payload))
	binary.LittleEndian.PutUint32(frame[10:14], crc32.Checksum(frame[FrameHeaderLen:], castagnoli))
	return frame, nil
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("aggd: string field of %d bytes too long", len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// appendLenPrefixed appends body behind its u32 length, the sub-payload
// form decoder.lenPrefixed reads back.
func appendLenPrefixed(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// AppendBatchFrame appends the framed encoding of b to dst and returns the
// extended slice, so a sender can reuse one scratch buffer per shipment.
//
//zerosum:hotpath
//zerosum:wire-encode batch
func AppendBatchFrame(dst []byte, b *Batch) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, FrameBatch)
	dst, err := appendBatchPayload(dst, b)
	if err != nil {
		return nil, err
	}
	frame, err := finishFrame(dst[start:])
	if err != nil {
		return nil, err
	}
	return dst[:start+len(frame)], nil
}

// EncodeBatchFrame encodes b as one complete frame.
func EncodeBatchFrame(b *Batch) ([]byte, error) { return AppendBatchFrame(nil, b) }

// EncodeSnapshotFrame encodes msg as one complete frame.
func EncodeSnapshotFrame(msg *SnapshotMsg) ([]byte, error) {
	body, err := encodeSnapshotPayload(msg)
	if err != nil {
		return nil, err
	}
	frame := appendHeader(nil, FrameSnapshot)
	frame = append(frame, body...)
	return finishFrame(frame)
}

// encodeSnapshotPayload renders the bare FrameSnapshot payload (JSON);
// rollup frames embed the same bytes length-prefixed.
func encodeSnapshotPayload(msg *SnapshotMsg) ([]byte, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("aggd: marshal snapshot: %w", err)
	}
	return body, nil
}

// CorruptFrameError reports bytes a FrameScanner had to throw away to get
// back in sync with the frame stream. It is a recoverable condition: the
// scanner is positioned at the next plausible frame when it is returned.
type CorruptFrameError struct {
	Skipped int    // bytes discarded, including any corrupt frame's own span
	Reason  string // human-readable cause
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("aggd: corrupt frame (%s, %d bytes skipped)", e.Reason, e.Skipped)
}

// FrameScanner iterates the frames of a byte stream, resynchronizing on
// corrupt input instead of giving up: garbage between frames is skipped up
// to the next plausible header, and a frame whose checksum does not match
// is reported and stepped over. Each corruption event surfaces as exactly
// one *CorruptFrameError from Next, so a caller can count losses and keep
// consuming the remaining healthy frames.
//
// The payload slice Next returns is only valid until the following Next or
// Reset call: the scanner reuses one payload buffer across frames so a
// pooled scanner serves a whole ingest stream without per-frame allocation.
type FrameScanner struct {
	r       *bufio.Reader
	payload []byte // reused across Next calls; see readFrameReuse
}

// NewFrameScanner wraps r for resynchronizing frame iteration.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

// maxRetainedPayload caps the payload buffer a scanner keeps between streams,
// so one oversized frame does not pin tens of megabytes inside a pool.
const maxRetainedPayload = 4 << 20

// Reset repoints the scanner at r, keeping its read buffer and (bounded)
// payload buffer so pooled scanners are reused across ingest requests.
func (s *FrameScanner) Reset(r io.Reader) {
	s.r.Reset(r)
	if cap(s.payload) > maxRetainedPayload {
		s.payload = nil
	}
}

// plausibleHeader reports whether hdr could open a real frame: the magic,
// exactly the one wire version, a known kind and a bounded length. Anything
// else — a frame stamped with a foreign version included — is bytes to
// resync past, so it surfaces as a CorruptFrameError and is never parsed.
func plausibleHeader(hdr []byte) bool {
	if [4]byte(hdr[:4]) != wireMagic || hdr[4] != WireVersion ||
		binary.LittleEndian.Uint32(hdr[6:10]) > MaxFramePayload {
		return false
	}
	switch FrameKind(hdr[5]) {
	case FrameBatch, FrameSnapshot, FrameRollup:
		return true
	}
	return false
}

// Next returns the next verified frame. io.EOF signals a clean end of
// stream; *CorruptFrameError signals skipped corruption with the scanner
// still usable; any other error (including a truncated final frame) is
// terminal.
func (s *FrameScanner) Next() (FrameKind, []byte, error) {
	skipped := 0
	for {
		hdr, err := s.r.Peek(FrameHeaderLen)
		if len(hdr) == 0 {
			if err != nil && err != io.EOF {
				return 0, nil, err
			}
			if skipped > 0 {
				return 0, nil, &CorruptFrameError{Skipped: skipped, Reason: "no frame magic before end of stream"}
			}
			return 0, nil, io.EOF
		}
		if len(hdr) < FrameHeaderLen {
			// Trailing bytes too short to ever form a header.
			n, _ := s.r.Discard(len(hdr))
			return 0, nil, &CorruptFrameError{Skipped: skipped + n, Reason: "truncated trailing bytes"}
		}
		if !plausibleHeader(hdr) {
			_, _ = s.r.Discard(1)
			skipped++
			continue
		}
		if skipped > 0 {
			// Report the garbage run first; the valid frame is still
			// buffered and will be returned by the next call.
			return 0, nil, &CorruptFrameError{Skipped: skipped, Reason: "garbage before frame magic"}
		}
		// hdr aliases the bufio buffer and is invalidated by the payload
		// read below; take what the error path needs now.
		span := FrameHeaderLen + int(binary.LittleEndian.Uint32(hdr[6:10]))
		kind, payload, err := s.readFrameReuse(hdr)
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, nil, err
			}
			// Checksum mismatch: the frame span was consumed; resume
			// scanning from the byte after it.
			return 0, nil, &CorruptFrameError{Skipped: span, Reason: "payload checksum mismatch"}
		}
		return kind, payload, nil
	}
}

// readFrameReuse reads one frame's payload into the scanner's reusable
// buffer and verifies its checksum. hdr is the full header Next already
// peeked (and plausibleHeader already vetted), so it is parsed in place
// rather than re-read — re-reading into a local array would heap-allocate it
// once per frame.
func (s *FrameScanner) readFrameReuse(hdr []byte) (FrameKind, []byte, error) {
	kind := FrameKind(hdr[5])
	n := int(binary.LittleEndian.Uint32(hdr[6:10]))
	want := binary.LittleEndian.Uint32(hdr[10:14])
	// Cannot fail: Peek just proved FrameHeaderLen buffered bytes.
	if _, err := s.r.Discard(FrameHeaderLen); err != nil {
		return 0, nil, err
	}
	payload, err := s.readPayloadReuse(n)
	if err != nil {
		return 0, nil, fmt.Errorf("aggd: frame payload: %w", io.ErrUnexpectedEOF)
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != want {
		return 0, nil, fmt.Errorf("aggd: frame payload checksum mismatch (corrupt frame)")
	}
	return kind, payload, nil
}

// readPayloadReuse reads exactly n payload bytes into the scanner's own
// buffer, so a warm scanner reads every frame allocation-free. A buffer that
// is too small grows in bounded chunks: a corrupt or hostile length field
// costs at most one chunk of allocation before the short read surfaces.
func (s *FrameScanner) readPayloadReuse(n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := s.payload[:0]
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(s.r, buf)
		return buf, err
	}
	for len(buf) < n {
		k := n - len(buf)
		if k > chunk {
			k = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(s.r, buf[off:]); err != nil {
			return nil, err
		}
	}
	s.payload = buf
	return buf, nil
}

// decoder is a cursor over one frame payload.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) ([]byte, error) {
	if d.off+n > len(d.buf) {
		return nil, d.short(n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// short is outlined so need (and the u8/u32/u64 readers built on it) stays
// cheap enough to inline into the decode loop.
func (d *decoder) short(n int) error {
	return fmt.Errorf("aggd: truncated payload at offset %d (need %d of %d)", d.off, n, len(d.buf))
}

func (d *decoder) u8() (byte, error) {
	b, err := d.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// str decodes a u16-length-prefixed string without interning (for
// low-frequency fields like a rollup's leaf ID, where an arena table
// buys nothing).
func (d *decoder) str() (string, error) {
	b, err := d.need(2)
	if err != nil {
		return "", err
	}
	raw, err := d.need(int(binary.LittleEndian.Uint16(b)))
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// lenPrefixed returns a u32-length-prefixed sub-payload, aliasing the
// decoder's buffer.
func (d *decoder) lenPrefixed() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	return d.need(int(n))
}

// maxInterned bounds a BatchBuf's string table so a hostile stream of
// distinct label strings cannot grow a pooled arena without limit; overflow
// strings still decode, they just allocate. The dictionary's strings (job,
// node, any label outside the static table) repeat endlessly across
// batches, so a warm table makes dictionary decode allocation-free.
const maxInterned = 1024

// BatchBuf is a reusable decode arena for batch payloads. The events and
// their payload structs land in slices owned by the arena, and repeated
// strings resolve through its intern table, so a warm arena decodes a batch
// without allocating. Everything DecodeBatchPayloadInto returns aliases the
// arena and is only valid until its next use; a caller that reuses arenas
// (the ingest path pools them) must copy out whatever it keeps.
type BatchBuf struct {
	batch Batch
	lwp   []export.LWPSample
	hwt   []export.HWTSample
	gpu   []export.GPUSample
	mem   []export.MemSample
	io    []export.IOSample
	strs  map[string]string

	// Per-batch decode state: the batch dictionary, its canonical-form
	// bookkeeping, and the per-stream delta predictors. Kept here (rather
	// than on a per-call struct) so a pooled warm arena decodes without
	// allocating; reset clears values but keeps the map buckets.
	dict     []string
	dictUsed int
	dictSeen map[string]bool
	streams  predStreams
}

func (bb *BatchBuf) reset() {
	ev := bb.batch.Events[:0]
	bb.batch = Batch{}
	bb.batch.Events = ev
	bb.lwp = bb.lwp[:0]
	bb.hwt = bb.hwt[:0]
	bb.gpu = bb.gpu[:0]
	bb.mem = bb.mem[:0]
	bb.io = bb.io[:0]
	if bb.strs == nil {
		bb.strs = make(map[string]string)
		bb.dictSeen = make(map[string]bool)
	} else {
		clear(bb.dictSeen)
	}
	bb.dict = bb.dict[:0]
	bb.dictUsed = 0
	bb.streams.reset()
}

// fixupEventPayloads assigns each event's payload pointer into the arena.
// This runs only after the whole batch is decoded: the per-kind appends in
// decodeEventInto may relocate the typed slices mid-decode, so events carry
// nil pointers until every backing array has reached its final address.
//
//zerosum:wire-decode event
func fixupEventPayloads(events []export.Event, bb *BatchBuf) {
	var iL, iH, iG, iM, iI int
	for i := range events {
		switch events[i].Kind {
		case export.EventLWP:
			events[i].LWP = &bb.lwp[iL]
			iL++
		case export.EventHWT:
			events[i].HWT = &bb.hwt[iH]
			iH++
		case export.EventGPU:
			events[i].GPU = &bb.gpu[iG]
			iG++
		case export.EventMem:
			events[i].Mem = &bb.mem[iM]
			iM++
		case export.EventIO:
			events[i].IO = &bb.io[iI]
			iI++
		}
	}
}

// DecodeSnapshotPayload parses a FrameSnapshot payload.
func DecodeSnapshotPayload(payload []byte) (*SnapshotMsg, error) {
	var msg SnapshotMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return nil, fmt.Errorf("aggd: unmarshal snapshot: %w", err)
	}
	return &msg, nil
}
