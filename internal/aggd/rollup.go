package aggd

import (
	"encoding/binary"
	"fmt"
)

// Rollup frames are the tree's upstream wire format: a leaf aggregator
// admits agent batches (running the usual per-origin dedup), buffers the
// admitted payloads, and ships them to its parent as one rollup frame per
// flush. The frame rides the ZSAG framing with its own kind byte
// (FrameRollup), so leaves and roots share one ingest endpoint and the
// resyncing FrameScanner skips corrupt rollups exactly like corrupt batches.
//
// Rollup payload layout (little endian, after the 14-byte frame header):
//
//	leafID    string (u16 length + bytes) — stable identity of the leaf
//	leafEpoch uint64 — incarnation of the leaf process
//	seq       uint64 — rollup sequence within the epoch, 0,1,2,…
//	nBatches  uint32
//	  nBatches × { len uint32, batch payload (the FrameBatch encoding) }
//	nSnaps    uint32
//	  nSnaps × { len uint32, SnapshotMsg JSON (the FrameSnapshot payload) }
//
// The embedded batches keep their original (origin, epoch, seq) identity,
// so the parent runs the same per-origin dedup it runs for direct agent
// traffic: a batch the dying leaf forwarded and its successor forwards
// again merges exactly once. (leafEpoch, seq) dedup on top makes replaying
// a whole rollup — a retry racing a lost ack, or a restarted leaf — cheap
// and idempotent.
const FrameRollup FrameKind = 3

// RollupMsg is the decoded form of one rollup frame.
type RollupMsg struct {
	// LeafID names the forwarding leaf; the parent tracks (LeafEpoch, Seq)
	// dedup state per leaf ID.
	LeafID    string
	LeafEpoch uint64
	Seq       uint64
	Batches   []Batch
	Snapshots []SnapshotMsg
}

// minRollupPayload is the smallest well-formed rollup payload: an empty
// leaf ID (2 bytes), epoch and seq (8 each), and two zero counts (4 each).
const minRollupPayload = 2 + 8 + 8 + 4 + 4

// AppendRollupFrame appends the framed encoding of ru to dst and returns
// the extended slice. It is the message-level encoder: tests, fuzz seeds,
// tools and benchmarks build frames from a RollupMsg with it, and it is the
// reference a leaf's relayed frames are compared against. A Forwarder
// already holds its parts in wire form and frames them through the same
// appendRollupFrame.
//
//zerosum:wire-encode rollup
func AppendRollupFrame(dst []byte, ru *RollupMsg) ([]byte, error) {
	var batches []byte
	var err error
	for i := range ru.Batches {
		// Length-prefix each embedded batch payload; the payload bytes are
		// exactly what AppendBatchFrame would put after its header.
		lenAt := len(batches)
		batches = binary.LittleEndian.AppendUint32(batches, 0)
		if batches, err = appendBatchPayload(batches, &ru.Batches[i]); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(batches[lenAt:], uint32(len(batches)-lenAt-4))
	}
	snaps := make([][]byte, len(ru.Snapshots))
	for i := range ru.Snapshots {
		if snaps[i], err = encodeSnapshotPayload(&ru.Snapshots[i]); err != nil {
			return nil, err
		}
	}
	return appendRollupFrame(dst, ru.LeafID, ru.LeafEpoch, ru.Seq, len(ru.Batches), batches, snaps)
}

// appendRollupFrame frames one rollup whose parts are already in wire form:
// batches holds nBatches length-prefixed batch payloads back to back, as
// they sit in the frame; snaps holds the bare snapshot JSON bodies.
//
//zerosum:wire-encode rollup
func appendRollupFrame(dst []byte, leafID string, leafEpoch, seq uint64,
	nBatches int, batches []byte, snaps [][]byte) ([]byte, error) {
	start := len(dst)
	dst = appendHeader(dst, FrameRollup)
	dst, err := appendString(dst, leafID)
	if err != nil {
		return nil, err
	}
	dst = binary.LittleEndian.AppendUint64(dst, leafEpoch)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nBatches))
	dst = append(dst, batches...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(snaps)))
	for _, body := range snaps {
		dst = appendLenPrefixed(dst, body)
	}
	frame, err := finishFrame(dst[start:])
	if err != nil {
		return nil, err
	}
	return dst[:start+len(frame)], nil
}

// rollupView is the structural decomposition of a rollup payload: the
// header fields plus zero-copy slices into the embedded sub-payloads.
// walkRollupPayload validates the whole structure before the caller
// commits (leafEpoch, seq) to its dedup state, so a truncated rollup never
// burns a sequence number at the parent.
type rollupView struct {
	leafID    string
	leafEpoch uint64
	seq       uint64
	batches   [][]byte // FrameBatch payload encodings, aliasing the input
	snaps     [][]byte // SnapshotMsg JSON bodies, aliasing the input
}

// walkRollupPayload parses the rollup structure into view, reusing its
// slices. The sub-payloads are not decoded here — only sized and sliced —
// so hostile counts fail on the length walk before anything allocates in
// proportion to them.
//
//zerosum:wire-decode rollup
func walkRollupPayload(payload []byte, view *rollupView) error {
	if len(payload) < minRollupPayload {
		return fmt.Errorf("aggd: rollup payload of %d bytes too short", len(payload))
	}
	view.batches = view.batches[:0]
	view.snaps = view.snaps[:0]
	d := &decoder{buf: payload}
	var err error
	if view.leafID, err = d.str(); err != nil {
		return err
	}
	if view.leafEpoch, err = d.u64(); err != nil {
		return err
	}
	if view.seq, err = d.u64(); err != nil {
		return err
	}
	nb, err := d.u32()
	if err != nil {
		return err
	}
	// Every embedded batch costs at least its length prefix plus the
	// minimal batch payload (an empty dictionary, two table refs, rank,
	// epoch, seq, count: 7 bytes), so a count the remaining bytes cannot
	// hold is rejected before it sizes anything.
	const minEmbeddedBatch = 4 + 7
	if int64(nb)*minEmbeddedBatch > int64(len(payload)-d.off) {
		return fmt.Errorf("aggd: rollup claims %d batches in %d bytes", nb, len(payload)-d.off)
	}
	for i := uint32(0); i < nb; i++ {
		body, err := d.lenPrefixed()
		if err != nil {
			return fmt.Errorf("aggd: rollup batch %d: %w", i, err)
		}
		view.batches = append(view.batches, body)
	}
	ns, err := d.u32()
	if err != nil {
		return err
	}
	const minEmbeddedSnap = 4 + 2 // length prefix + "{}"
	if int64(ns)*minEmbeddedSnap > int64(len(payload)-d.off) {
		return fmt.Errorf("aggd: rollup claims %d snapshots in %d bytes", ns, len(payload)-d.off)
	}
	for i := uint32(0); i < ns; i++ {
		body, err := d.lenPrefixed()
		if err != nil {
			return fmt.Errorf("aggd: rollup snapshot %d: %w", i, err)
		}
		view.snaps = append(view.snaps, body)
	}
	if d.off != len(payload) {
		return fmt.Errorf("aggd: %d trailing bytes after rollup", len(payload)-d.off)
	}
	return nil
}

// DecodeRollupPayload parses a rollup payload into an independently owned
// RollupMsg: every embedded batch decodes into its own arena and every
// snapshot into its own document. ver is the version byte of the frame the
// payload came in and must be WireVersion. The ingest path does not use
// this (it walks the structure and applies sub-payloads through the pooled
// arenas instead); it exists for tests, tooling, and the fuzz target's
// canonicality check.
//
//zerosum:wire-decode rollup
func DecodeRollupPayload(payload []byte, ver uint8) (*RollupMsg, error) {
	if ver != WireVersion {
		return nil, fmt.Errorf("aggd: rollup payload of wire version %d (want %d)", ver, WireVersion)
	}
	var view rollupView
	if err := walkRollupPayload(payload, &view); err != nil {
		return nil, err
	}
	ru := &RollupMsg{LeafID: view.leafID, LeafEpoch: view.leafEpoch, Seq: view.seq}
	for i, body := range view.batches {
		b, err := DecodeBatchPayloadInto(body, new(BatchBuf))
		if err != nil {
			return nil, fmt.Errorf("aggd: rollup batch %d: %w", i, err)
		}
		ru.Batches = append(ru.Batches, *b)
	}
	for i, body := range view.snaps {
		msg, err := DecodeSnapshotPayload(body)
		if err != nil {
			return nil, fmt.Errorf("aggd: rollup snapshot %d: %w", i, err)
		}
		ru.Snapshots = append(ru.Snapshots, *msg)
	}
	return ru, nil
}
