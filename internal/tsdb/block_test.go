package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"
)

// blockTestSamples is a deterministic multi-series sample stream that
// crosses several block boundaries (and therefore seals chunks) at the
// test's 10s block.
func blockTestSamples() map[SeriesKey][]Point {
	out := make(map[SeriesKey][]Point)
	for r := 0; r < 3; r++ {
		for _, metric := range []string{"lwp.user_pct", "mem.free_kb"} {
			key := SeriesKey{Node: fmt.Sprintf("n%02d", r%2), Rank: r, TID: 100 + r, Metric: metric}
			for i := 0; i < 120; i++ {
				out[key] = append(out[key], Point{
					T: int64(i) * 5e8, // 0.5s cadence: 60s of data, 6 block crossings
					V: float64(r*1000+i) + 0.25,
				})
			}
		}
	}
	return out
}

// TestImportBlockSetRoundTrip replays a dump into a fresh store and checks
// the re-import is equivalent: same marshalled bytes under the same
// options, same sample count.
func TestImportBlockSetRoundTrip(t *testing.T) {
	opts := Options{Block: 10 * time.Second}
	src := NewStore(opts)
	n := 0
	for key, pts := range blockTestSamples() {
		for _, p := range pts {
			src.Append("job", key, p.T, p.V)
			n++
		}
	}
	blob, err := src.MarshalJob("job")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := UnmarshalBlocks(blob)
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore(opts)
	imported, err := dst.ImportBlockSet(bs)
	if err != nil {
		t.Fatal(err)
	}
	if imported != n {
		t.Fatalf("imported %d samples, want %d", imported, n)
	}
	again, err := dst.MarshalJob("job")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-imported store marshals differently from the original dump")
	}

	if imported, err := dst.ImportBlockSet(nil); imported != 0 || err != nil {
		t.Fatalf("nil import: %d, %v", imported, err)
	}
}

// oneChunkBlob marshals a one-series, one-chunk block set, with a valid
// CRC, whose chunk declares count samples over a real one-sample bitstream.
func oneChunkBlob(t testing.TB, count int) []byte {
	t.Helper()
	st := NewStore(Options{})
	st.Append("j", SeriesKey{Node: "n", Metric: "m"}, 1e9, 2.5)
	bs, err := st.snapshotBlocks("j")
	if err != nil {
		t.Fatal(err)
	}
	bs.Series[0].Chunks[0].Count = count
	blob, err := marshalBlockSet(bs)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestUnmarshalBlocksBoundsChunkCount: a chunk's count sizes the slice
// Samples decodes into, so a blob with a valid CRC must still be refused
// when the count is one no store writes: zero, or more than a chunk holds.
func TestUnmarshalBlocksBoundsChunkCount(t *testing.T) {
	if _, err := UnmarshalBlocks(oneChunkBlob(t, maxChunkSamples)); err != nil {
		t.Fatalf("count %d rejected: %v", maxChunkSamples, err)
	}
	for _, count := range []int{0, maxChunkSamples + 1} {
		if bs, err := UnmarshalBlocks(oneChunkBlob(t, count)); err == nil {
			t.Errorf("count %d accepted: chunk Count %d", count, bs.Series[0].Chunks[0].Count)
		}
	}
}

// TestUnmarshalBlocksRefusesV1: a well-formed version-1 blob, whose chunk
// records carried a rollup count before the bitstream, is refused by its
// version byte rather than parsed.
func TestUnmarshalBlocksRefusesV1(t *testing.T) {
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte { return append(le.AppendUint16(b, uint16(len(s))), s...) }
	bits := oneChunkBlob(t, 1)
	bs, err := UnmarshalBlocks(bits)
	if err != nil {
		t.Fatal(err)
	}
	c := bs.Series[0].Chunks[0]
	v1 := append([]byte(blockMagic), 1)
	v1 = str(v1, "j")
	v1 = le.AppendUint32(v1, 1) // nseries
	v1 = str(str(v1, "n"), "m")
	v1 = le.AppendUint32(le.AppendUint32(v1, 0), 0) // rank, tid
	v1 = le.AppendUint32(v1, 1)                     // nchunks
	v1 = le.AppendUint64(v1, uint64(c.Part))
	v1 = le.AppendUint64(v1, uint64(c.TMin))
	v1 = le.AppendUint64(v1, uint64(c.TMax))
	v1 = le.AppendUint32(v1, uint32(c.Count))
	v1 = le.AppendUint32(v1, 0) // nrollups
	v1 = le.AppendUint32(v1, uint32(len(c.Data)))
	v1 = append(v1, c.Data...)
	v1 = le.AppendUint32(v1, crc32.Checksum(v1[len(blockMagic):], blockCRC))
	_, err = UnmarshalBlocks(v1)
	if err == nil || !strings.Contains(err.Error(), "unsupported block version 1") {
		t.Fatalf("v1 blob: err = %v, want unsupported block version 1", err)
	}
}
