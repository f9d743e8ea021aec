package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Sealed-block wire format (all little endian). One encoded blob carries a
// whole job's chunk inventory — the checkpoint/transport form of the store,
// served at GET /api/job/{id}/tsdb and the on-disk spill format of the
// future:
//
//	magic   "ZSTB" (4 bytes)
//	version uint8 (currently 2)
//	job     u16 length + bytes
//	nseries u32
//	  per series: node, metric (u16 strings), rank i32, tid i32, nchunks u32
//	    per chunk: part i64, tMin i64, tMax i64, count u32,
//	               datalen u32 + Gorilla bitstream bytes
//	crc     u32 (CRC-32C of everything after the magic, before the crc)
//
// A chunk record is its bounds, its count and its bits. A version-1 blob,
// whose chunk records also carried rollups, is refused, not parsed.
//
// The decoder is fuzzed (FuzzTSDBBlockDecode): it must reject damage with
// an error — never panic, never let a hostile count size an allocation the
// remaining bytes cannot back, never over-read. A chunk's sample count
// sizes the slice Samples decodes into, so it must lie in
// [1, maxChunkSamples]: the store never writes an empty chunk or a fuller
// one.

const (
	blockMagic   = "ZSTB"
	blockVersion = 2
	// MaxBlockEncoded bounds one encoded job blob, mirroring the frame
	// limit on the ingest wire.
	MaxBlockEncoded = 256 << 20
)

// castagnoli matches the ingest wire's checksum so damage detection is
// uniform across the two formats.
var blockCRC = crc32.MakeTable(crc32.Castagnoli)

// BlockChunk is one decoded chunk: metadata and the still-compressed
// bitstream.
type BlockChunk struct {
	Part  int64
	TMin  int64
	TMax  int64
	Count int
	Data  []byte
}

// Samples decodes the chunk's bitstream. A corrupt stream yields an error
// and whatever prefix decoded cleanly.
func (c *BlockChunk) Samples() ([]Point, error) {
	pts := make([]Point, 0, c.Count)
	var it gIter
	it.init(c.Data, c.Count)
	for it.Next() {
		t, v := it.At()
		pts = append(pts, Point{T: t, V: v})
	}
	return pts, it.Err()
}

// BlockSeries is one decoded series with its chunks in stored order.
type BlockSeries struct {
	Key    SeriesKey
	Chunks []BlockChunk
}

// BlockSet is one job's decoded block inventory.
type BlockSet struct {
	Job    string
	Series []BlockSeries
}

// MarshalJob encodes the job's entire chunk inventory — sealed chunks and
// the live heads — as one ZSTB blob. Series appear in (rank, node, tid,
// metric) order, so equal store contents marshal to equal bytes.
func (st *Store) MarshalJob(job string) ([]byte, error) {
	bs, err := st.snapshotBlocks(job)
	if err != nil {
		return nil, err
	}
	return marshalBlockSet(bs)
}

// snapshotBlocks captures the job's chunk inventory as a BlockSet under the
// shard locks. Sealed chunk data is immutable and shared; head bitstreams
// are cloned while locked because appends keep mutating them. Each shard's
// chunk records and head clones are counted first and then filled into one
// exact-size slice each, which the shard's series share.
func (st *Store) snapshotBlocks(job string) (*BlockSet, error) {
	db := st.lookupJob(job)
	if db == nil {
		return nil, fmt.Errorf("tsdb: unknown job %q", job)
	}
	bs := &BlockSet{Job: job}
	//zerosum:locked seriesShard.mu eachShard holds the shard lock around fn
	db.eachShard(func(sh *seriesShard) {
		nChunks, headBytes := 0, 0
		for _, s := range sh.series {
			nChunks += len(s.sealed)
			if s.head.count > 0 {
				nChunks++
				headBytes += len(s.head.w.buf)
			}
		}
		chunks := make([]BlockChunk, 0, nChunks)
		heads := make([]byte, 0, headBytes)
		bs.Series = slices.Grow(bs.Series, len(sh.series))
		for key, s := range sh.series {
			first := len(chunks)
			for _, c := range s.sealed {
				chunks = append(chunks, BlockChunk{Part: c.part, TMin: c.tMin, TMax: c.tMax,
					Count: c.count, Data: c.data})
			}
			if h := &s.head; h.count > 0 {
				at := len(heads)
				heads = append(heads, h.w.buf...)
				chunks = append(chunks, BlockChunk{Part: h.part, TMin: h.tMin, TMax: h.tMax,
					Count: h.count, Data: heads[at:len(heads):len(heads)]})
			}
			if len(chunks) > first {
				bs.Series = append(bs.Series, BlockSeries{Key: key, Chunks: chunks[first:len(chunks):len(chunks)]})
			}
		}
	})
	// A job can hold tens of thousands of series (one per CPU per rank).
	slices.SortFunc(bs.Series, func(a, b BlockSeries) int {
		switch {
		case keyLess(a.Key, b.Key):
			return -1
		case keyLess(b.Key, a.Key):
			return 1
		}
		return 0
	})
	return bs, nil
}

// marshalBlockSet renders the ZSTB wire form of a block inventory.
//
//zerosum:wire-encode tsdb-block
func marshalBlockSet(bs *BlockSet) ([]byte, error) {
	// Size the blob before encoding: the fixed fields and every string and
	// bitstream length are known, so the buffer is allocated once.
	size := len(blockMagic) + 1 + 2 + len(bs.Job) + 4
	for i := range bs.Series {
		fs := &bs.Series[i]
		size += 2 + len(fs.Key.Node) + 2 + len(fs.Key.Metric) + 4 + 4 + 4
		for _, fc := range fs.Chunks {
			size += 8 + 8 + 8 + 4 + 4 + len(fc.Data)
		}
	}
	if size > MaxBlockEncoded {
		return nil, fmt.Errorf("tsdb: encoded job %q is %d bytes (max %d)", bs.Job, size, MaxBlockEncoded)
	}
	buf := append(make([]byte, 0, size+4), blockMagic...)
	buf = append(buf, blockVersion)
	var err error
	if buf, err = appendBlockString(buf, bs.Job); err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bs.Series)))
	for i := range bs.Series {
		fs := &bs.Series[i]
		if buf, err = appendBlockString(buf, fs.Key.Node); err != nil {
			return nil, err
		}
		if buf, err = appendBlockString(buf, fs.Key.Metric); err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(fs.Key.Rank)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(fs.Key.TID)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fs.Chunks)))
		for _, fc := range fs.Chunks {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(fc.Part))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(fc.TMin))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(fc.TMax))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(fc.Count))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fc.Data)))
			buf = append(buf, fc.Data...)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(blockMagic):], blockCRC)), nil
}

func appendBlockString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("tsdb: string field of %d bytes too long", len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// blockCursor walks an encoded blob with bounds checks everywhere.
type blockCursor struct {
	buf []byte
	off int
}

func (d *blockCursor) need(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) || d.off+n < d.off {
		return nil, fmt.Errorf("tsdb: truncated block at offset %d (need %d of %d)", d.off, n, len(d.buf))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *blockCursor) u32() (uint32, error) {
	b, err := d.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *blockCursor) i64() (int64, error) {
	b, err := d.need(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func (d *blockCursor) str() (string, error) {
	b, err := d.need(2)
	if err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(b))
	raw, err := d.need(n)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// UnmarshalBlocks decodes a ZSTB blob. Damage — bad magic, version, CRC,
// truncation, a chunk sample count outside [1, maxChunkSamples], or counts
// the remaining bytes cannot back — returns an error; the function never
// panics on arbitrary input.
//
//zerosum:wire-decode tsdb-block
func UnmarshalBlocks(data []byte) (*BlockSet, error) {
	if len(data) > MaxBlockEncoded+4 {
		return nil, fmt.Errorf("tsdb: block blob of %d bytes exceeds %d", len(data), MaxBlockEncoded)
	}
	if len(data) < len(blockMagic)+1+4 || string(data[:len(blockMagic)]) != blockMagic {
		return nil, fmt.Errorf("tsdb: bad block magic")
	}
	if v := data[len(blockMagic)]; v != blockVersion {
		return nil, fmt.Errorf("tsdb: unsupported block version %d (want %d)", v, blockVersion)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body[len(blockMagic):], blockCRC); got != sum {
		return nil, fmt.Errorf("tsdb: block checksum mismatch (corrupt blob)")
	}
	d := &blockCursor{buf: body, off: len(blockMagic) + 1}
	bs := &BlockSet{}
	var err error
	if bs.Job, err = d.str(); err != nil {
		return nil, err
	}
	nSeries, err := d.u32()
	if err != nil {
		return nil, err
	}
	// A series costs at least its two string headers plus rank, tid and
	// chunk count: 16 bytes. Reject counts the body cannot back before the
	// count sizes anything.
	if int64(nSeries)*16 > int64(len(body)-d.off) {
		return nil, fmt.Errorf("tsdb: block claims %d series in %d bytes", nSeries, len(body)-d.off)
	}
	bs.Series = make([]BlockSeries, 0, nSeries)
	for si := uint32(0); si < nSeries; si++ {
		var s BlockSeries
		if s.Key.Node, err = d.str(); err != nil {
			return nil, err
		}
		if s.Key.Metric, err = d.str(); err != nil {
			return nil, err
		}
		rank, err := d.u32()
		if err != nil {
			return nil, err
		}
		tid, err := d.u32()
		if err != nil {
			return nil, err
		}
		s.Key.Rank, s.Key.TID = int(int32(rank)), int(int32(tid))
		nChunks, err := d.u32()
		if err != nil {
			return nil, err
		}
		// A chunk costs at least its fixed header: 32 bytes.
		if int64(nChunks)*32 > int64(len(body)-d.off) {
			return nil, fmt.Errorf("tsdb: series %d claims %d chunks in %d bytes", si, nChunks, len(body)-d.off)
		}
		s.Chunks = make([]BlockChunk, 0, nChunks)
		for ci := uint32(0); ci < nChunks; ci++ {
			var c BlockChunk
			if c.Part, err = d.i64(); err != nil {
				return nil, err
			}
			if c.TMin, err = d.i64(); err != nil {
				return nil, err
			}
			if c.TMax, err = d.i64(); err != nil {
				return nil, err
			}
			count, err := d.u32()
			if err != nil {
				return nil, err
			}
			if count == 0 || count > maxChunkSamples {
				return nil, fmt.Errorf("tsdb: chunk claims %d samples (want 1..%d)", count, maxChunkSamples)
			}
			c.Count = int(count)
			dataLen, err := d.u32()
			if err != nil {
				return nil, err
			}
			raw, err := d.need(int(dataLen))
			if err != nil {
				return nil, err
			}
			c.Data = append([]byte(nil), raw...)
			s.Chunks = append(s.Chunks, c)
		}
		bs.Series = append(bs.Series, s)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("tsdb: %d trailing bytes after block set", len(body)-d.off)
	}
	return bs, nil
}

// ImportBlockSet replays a decoded block set through the store's normal
// append path, creating the job and its series as needed. Chunks decode
// oldest-first and samples replay in their stored order, so a dump of a
// healthy store re-imports into an equivalent one. Returns the number of
// samples landed; a corrupt bitstream stops the import mid-series with
// the count so far.
func (st *Store) ImportBlockSet(bs *BlockSet) (int, error) {
	if bs == nil {
		return 0, nil
	}
	n := 0
	for si := range bs.Series {
		s := &bs.Series[si]
		for ci := range s.Chunks {
			pts, err := s.Chunks[ci].Samples()
			for _, p := range pts {
				st.Append(bs.Job, s.Key, p.T, p.V)
				n++
			}
			if err != nil {
				return n, fmt.Errorf("tsdb: import series %v chunk %d: %w", s.Key, ci, err)
			}
		}
	}
	return n, nil
}
