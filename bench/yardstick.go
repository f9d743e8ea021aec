package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// The yardstick says how fast the host is while a run measures. The sandbox
// this benchmark is sized for is a two-core VM among neighbours that contend
// for cache and memory: arithmetic runs at a constant speed, but everything
// that misses a cache — which is all of this pipeline — slows by up to a
// third for minutes at a time, and every timing of a run moves with it. Two
// sets of runs of one commit then differ by more than any bound worth
// having. So each run times a fixed piece of work of the benchmark's own,
// every yardEvery for as long as it measures, and reports its timings at
// reference speed: as measured × host.speed_x (rates ÷). README.md has the
// numbers that led here.
//
// The work is two kernels shaped like the pipeline's own hot loops but
// sharing no code with them, so that no change to the program moves the
// yardstick: deflating 8 KiB of /proc-like text (the wire's gzip) and
// splitting, converting and counting the numbers of 16 KiB of it in a map
// (the sampler's parsing, the servers' maps and allocation). Each starts on
// whatever cache the pipeline left it — that is the point.

const yardEvery = 25 * time.Millisecond

// yardRefFlateUS and yardRefParseUS define reference speed: what the two
// kernels take on the recording host in its quiet phase beside a running
// pipeline. host.speed_x is 1 there, below 1 on a slower host.
const (
	yardRefFlateUS = 350.0
	yardRefParseUS = 235.0
)

// yardText is /proc/stat-like rows from a fixed generator: the same bytes in
// every run of every seed.
var yardText = func() []byte {
	var b bytes.Buffer
	x := uint64(12345)
	for b.Len() < 16<<10 {
		x = x*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(&b, "cpu%d %d %d %d 0 0 0 0\n", (x>>40)%64, (x>>20)%100000, (x>>30)%5000, x%977)
	}
	return b.Bytes()
}()

var yardSink int // keeps the parse kernel's result alive

type yardstick struct {
	zw           *flate.Writer
	flate, parse samples // µs per kernel run
	quit         chan struct{}
	wg           sync.WaitGroup
}

func (y *yardstick) sample() {
	t0 := time.Now()
	y.zw.Reset(io.Discard)
	_, _ = y.zw.Write(yardText[:8<<10])
	_ = y.zw.Close()
	t1 := time.Now()
	seen := map[uint64]int{}
	for rest := yardText; len(rest) > 0; {
		eol := bytes.IndexByte(rest, '\n')
		for _, field := range bytes.Fields(rest[:eol])[1:] {
			v, _ := strconv.ParseUint(string(field), 10, 64)
			seen[v]++
		}
		rest = rest[eol+1:]
	}
	yardSink += len(seen)
	t2 := time.Now()
	y.flate.add(float64(t1.Sub(t0)) / 1e3)
	y.parse.add(float64(t2.Sub(t1)) / 1e3)
}

// startYardstick samples host speed on its own goroutine until stop: about
// 0.6 ms of work every 25 ms.
func startYardstick() *yardstick {
	zw, _ := flate.NewWriter(io.Discard, flate.DefaultCompression) // the level is valid
	y := &yardstick{zw: zw, quit: make(chan struct{})}
	y.wg.Add(1)
	go func() {
		defer y.wg.Done()
		tick := time.NewTicker(yardEvery)
		defer tick.Stop()
		for {
			y.sample()
			select {
			case <-y.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return y
}

// stop ends the sampling and returns host speed over its life: the geometric
// mean of reference over median time of the two kernels.
func (y *yardstick) stop() (speed float64) {
	close(y.quit)
	y.wg.Wait()
	return math.Sqrt(yardRefFlateUS / y.flate.pct(0.5) * yardRefParseUS / y.parse.pct(0.5))
}
