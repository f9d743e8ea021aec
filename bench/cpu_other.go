//go:build !unix

package main

import "time"

// processCPU is unavailable here; cpu_us_per_event reads 0 and the run
// fails its own non-zero check rather than reporting a made-up number.
func processCPU() time.Duration { return 0 }
