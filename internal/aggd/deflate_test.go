package aggd

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"zerosum/internal/export"
	"zerosum/internal/sim"
)

// gzipFixtureBatch is one rank's shipment of n events in the shape a
// monitored tick produces — eight LWPs, four HWTs and a memory row per tick
// — with utilizations that move by whole jiffies and slowly moving
// counters, so the frame compresses the way a real one does rather than the
// way a constant one does.
func gzipFixtureBatch(rank, n int) *Batch {
	rng := sim.NewRNG(uint64(rank) + 1)
	b := &Batch{Origin: Origin{Job: "job-42", Node: "node-0003", Rank: rank}, Epoch: 1, Seq: 9}
	for tick := 0; len(b.Events) < n; tick++ {
		t := 100 + 0.1*float64(tick)
		for tid := 0; tid < 8 && len(b.Events) < n; tid++ {
			b.Events = append(b.Events, export.Event{Kind: export.EventLWP, TimeSec: t,
				LWP: &export.LWPSample{TimeSec: t, TID: 4200 + tid, Kind: "OpenMP", State: 'R',
					UserPct: float64(90 + rng.Intn(10)), SysPct: float64(rng.Intn(3)), VCtx: uint64(10*tick + tid),
					NVCtx: uint64(tick*rng.Intn(40) + tid), MinFlt: uint64(34 + tick), CPU: tid}})
		}
		for cpu := 0; cpu < 4 && len(b.Events) < n; cpu++ {
			user := float64(85 + rng.Intn(10))
			b.Events = append(b.Events, export.Event{Kind: export.EventHWT, TimeSec: t,
				HWT: &export.HWTSample{TimeSec: t, CPU: cpu, IdlePct: 100 - user - 1, SysPct: 1, UserPct: user}})
		}
		if len(b.Events) < n {
			b.Events = append(b.Events, export.Event{Kind: export.EventMem, TimeSec: t,
				Mem: &export.MemSample{TimeSec: t, TotalKB: 64 << 20, FreeKB: uint64(32<<20 - rng.Intn(1<<16)),
					AvailKB: 48 << 20, ProcRSSKB: uint64(1<<20 + 512*tick), ProcHWMKB: 2 << 20}})
		}
	}
	return b
}

// gzipFixtureFrames: an agent's frame at the tree benchmark's batch size
// (128 events) and at the default (512), and a leaf's rollup of seven such
// shipments, larger than the 32 KiB window.
func gzipFixtureFrames(t testing.TB) map[string][]byte {
	frames := map[string][]byte{}
	for name, n := range map[string]int{"batch128": 128, "batch512": 512} {
		f, err := EncodeBatchFrame(gzipFixtureBatch(0, n))
		if err != nil {
			t.Fatal(err)
		}
		frames[name] = f
	}
	ru := &RollupMsg{LeafID: "leaf-a:9101", LeafEpoch: 1, Seq: 3}
	for rank := 0; rank < 7; rank++ {
		ru.Batches = append(ru.Batches, *gzipFixtureBatch(rank, 512))
	}
	f, err := AppendRollupFrame(nil, ru)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) <= dfWindow {
		t.Fatalf("rollup fixture is %d bytes, want more than the %d-byte window", len(f), dfWindow)
	}
	frames["rollup"] = f
	return frames
}

// gunzip is the reference decoder: the server's own, stdlib gzip.Reader.
func gunzip(t testing.TB, z []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	return out
}

func stdlibGzip(t testing.TB, src []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipEncoderSize: on the fixture frames the encoder's output round-trips
// through stdlib gzip.Reader and is no more than 1 % larger than stdlib's
// DefaultCompression, whose parse it copies.
func TestGzipEncoderSize(t *testing.T) {
	var e gzipEncoder
	for name, frame := range gzipFixtureFrames(t) {
		for pass := 0; pass < 2; pass++ { // the second pass runs over warm, stale tables
			got := e.encode(nil, frame)
			if !bytes.Equal(gunzip(t, got), frame) {
				t.Fatalf("%s pass %d: round trip differs from the input", name, pass)
			}
			ref := len(stdlibGzip(t, frame))
			t.Logf("%s: %d bytes raw, %d stdlib, %d encoder", name, len(frame), ref, len(got))
			if float64(len(got)) > 1.01*float64(ref) {
				t.Errorf("%s: %d bytes, want <= 1.01 x stdlib's %d", name, len(got), ref)
			}
		}
	}
}

// TestGzipEncoderWarmZeroAlloc holds a warm encoder to zero allocations per
// frame: the tables are reused without a clear and the caller's output
// buffer has grown to the frame size.
func TestGzipEncoderWarmZeroAlloc(t *testing.T) {
	var e gzipEncoder
	for name, frame := range gzipFixtureFrames(t) {
		out := e.encode(nil, frame)
		if avg := testing.AllocsPerRun(50, func() { out = e.encode(out[:0], frame) }); avg != 0 {
			t.Errorf("%s: warm encode allocates %.1f per frame, want 0", name, avg)
		}
	}
}

// TestGzipEncoderEdgeShapes covers what neither the fixtures nor the fuzz
// seeds reach: stored blocks, more than one block per frame, runs that
// match at the longest length, and a table rebase.
func TestGzipEncoderEdgeShapes(t *testing.T) {
	rng := sim.NewRNG(5)
	noise := make([]byte, 3*dfMaxTokens+17) // incompressible: stored blocks
	for i := range noise {
		noise[i] = byte(rng.Uint64())
	}
	zeros := make([]byte, 100_000) // long matches, many per block
	skewed := make([]byte, 70_000) // literals only, few symbols: Huffman, not stored
	for i := range skewed {
		skewed[i] = "aaaaaaaabbbbccd"[rng.Intn(15)] + byte(i%2)*16
	}
	var e gzipEncoder
	for name, in := range map[string][]byte{"noise": noise, "zeros": zeros, "skewed": skewed} {
		if got := gunzip(t, e.encode(nil, in)); !bytes.Equal(got, in) {
			t.Errorf("%s: round trip of %d bytes gave %d different bytes", name, len(in), len(got))
		}
	}
	e.next = 1<<32 - 10 // the next call must clear the tables and start over
	if got := gunzip(t, e.encode(nil, zeros)); !bytes.Equal(got, zeros) || e.next != uint32(len(zeros)) {
		t.Errorf("rebase: round trip ok=%v, next base %d", bytes.Equal(got, zeros), e.next)
	}
}

// TestHuffLengthsLimited: a Fibonacci-weighted alphabet wants codes far
// deeper than 15 bits; the capped lengths must still form a complete prefix
// code.
func TestHuffLengthsLimited(t *testing.T) {
	var freq [dfNumLit]uint32
	a, b := uint32(1), uint32(1)
	for s := 0; s < 24; s++ {
		freq[s] = a
		a, b = b, min(a+b, 60000)
	}
	var lens [dfNumLit]uint8
	var keys, work [dfNumLit]uint32
	for _, maxBits := range []uint32{15, 7} {
		huffLengths(freq[:], lens[:], maxBits, keys[:], work[:])
		kraft := 0.0
		for s, l := range lens {
			if (l == 0) != (freq[s] == 0) || uint32(l) > maxBits {
				t.Fatalf("max %d: symbol %d (freq %d) got length %d", maxBits, s, freq[s], l)
			}
			if l > 0 {
				kraft += 1 / float64(uint64(1)<<l)
			}
		}
		if kraft != 1 {
			t.Errorf("max %d: Kraft sum %v, want exactly 1", maxBits, kraft)
		}
	}
}

// FuzzGzipRoundTrip: whatever the bytes, stdlib gzip.Reader must return them
// unchanged from the encoder's output, from a fresh encoder and then from
// the same encoder again, over the tables the first pass left stale. Each
// input gets its own encoder so its coverage does not depend on the inputs
// before it.
func FuzzGzipRoundTrip(f *testing.F) {
	for _, frame := range gzipFixtureFrames(f) {
		f.Add(frame)
	}
	rng := sim.NewRNG(9)
	noise := make([]byte, 4096)
	for i := range noise {
		noise[i] = byte(rng.Uint64())
	}
	f.Add([]byte{})
	f.Add([]byte{0x5a})
	f.Add(noise)
	f.Fuzz(func(t *testing.T, in []byte) {
		e := new(gzipEncoder)
		for pass := 0; pass < 2; pass++ {
			if got := gunzip(t, e.encode(nil, in)); !bytes.Equal(got, in) {
				t.Fatalf("pass %d: %d bytes in, %d different bytes out", pass, len(in), len(got))
			}
		}
	})
}

// BenchmarkGzipFrame prices one frame through the encoder and through the
// pooled stdlib gzip.Writer it replaced.
func BenchmarkGzipFrame(b *testing.B) {
	frames := gzipFixtureFrames(b)
	for _, name := range []string{"batch128", "batch512", "rollup"} {
		frame := frames[name]
		b.Run(name+"/encoder", func(b *testing.B) {
			var e gzipEncoder
			var out []byte
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				out = e.encode(out[:0], frame)
			}
		})
		b.Run(name+"/stdlib", func(b *testing.B) {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				zw.Reset(&buf)
				_, _ = zw.Write(frame)
				_ = zw.Close()
			}
		})
	}
}
