// realproc runs ZeroSum's always-on library mode against THIS process on a
// real Linux host: it spawns some busy and some sleepy goroutines (which
// the Go runtime maps onto OS threads — LWPs), monitors them through the
// live /proc at a fast period, and prints the genuine utilization report.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"zerosum"
)

func main() {
	if runtime.GOOS != "linux" {
		log.Fatal("realproc needs a Linux /proc")
	}

	// The per-process LWP CSV log is written as samples are taken; the
	// monitor keeps no series of its own.
	var lwpCSV bytes.Buffer
	sink := zerosum.NewCSVSink(&lwpCSV, nil, nil, nil)
	var stream zerosum.Stream
	stream.Subscribe(sink.Subscriber())
	mon, err := zerosum.MonitorSelf(zerosum.MonitorConfig{
		Period:         200 * time.Millisecond,
		HeartbeatEvery: 5,
		Heartbeat:      os.Stderr,
		Stream:         &stream,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Generate load: two spinning workers and one sleeper, on locked OS
	// threads so they are distinct LWPs in /proc.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			x := 0.0
			for ctx.Err() == nil {
				for i := 0; i < 1_000_000; i++ {
					x += float64(i % 7)
				}
			}
			_ = x
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		<-ctx.Done()
	}()

	if err := mon.Run(ctx); err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("\nObserved %d samples of PID %d on %s through the live /proc:\n\n",
		mon.Samples(), mon.PID(), mon.Hostname())
	if err := zerosum.WriteReport(os.Stdout, mon.Snapshot(), zerosum.ReportOptions{
		Memory: true,
	}); err != nil {
		log.Fatal(err)
	}

	// Print the sampled time series, the tool's per-process CSV log.
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := lwpCSV.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
