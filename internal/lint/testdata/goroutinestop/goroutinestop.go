// Package goroutinestop exercises the flow-based goroutine lifecycle
// check: a spawned body must have some path from entry to exit. Bounded
// loops, ok-checked receives, range-over-channel and select-with-return
// all terminate; for {} and unconditional receive loops never do.
package goroutinestop

import "context"

// Spin spawns a goroutine with no path to return.
func Spin() {
	go func() { // true positive: for {} has no exit
		for {
		}
	}()
}

// Drain receives forever with no close/ok check.
func Drain(ch chan int) {
	go func() { // true positive: the loop never breaks
		for {
			<-ch
		}
	}()
}

// WithDone exits through the select's return case.
func WithDone(done chan struct{}, ch chan int) {
	go func() {
		for {
			select {
			case <-done:
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

// Consume ends when the channel closes: range terminates.
func Consume(ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}

// Burst runs a bounded loop; the condition can go false.
func Burst() {
	go func() {
		for i := 0; i < 10; i++ {
			_ = i
		}
	}()
}

// worker blocks until told to stop, then returns.
func worker(done chan struct{}) {
	<-done
}

// SpawnWorker resolves the named body through the module.
func SpawnWorker(done chan struct{}) {
	go worker(done)
}

// spin never returns; the call site is caught through the module body.
func spin() {
	for {
	}
}

// SpawnSpin spawns the unstoppable named function.
func SpawnSpin() {
	go spin() // true positive: resolved body has no exit
}

// SpawnFn cannot see fn's body; passing a lifecycle value satisfies the
// fallback convention.
func SpawnFn(fn func(chan struct{}), done chan struct{}) {
	go fn(done)
}

// SpawnFnBad cannot see fn's body and passes nothing governable.
func SpawnFnBad(fn func()) {
	go fn() // true positive: opaque callee, no lifecycle argument
}

// Count spins a counter loop with no condition: nothing ends it.
func Count() {
	go func() { // true positive: for i := 0; ; i++ has no exit
		for i := 0; ; i++ {
			_ = i
		}
	}()
}

// SpawnCtx cannot see run's body; a context.Context argument is a
// lifecycle value by its type, whatever it is called.
func SpawnCtx(c context.Context, run func(context.Context)) {
	go run(c)
}

type looper struct {
	stop chan struct{}
}

func (l *looper) loop() { <-l.stop }

// Start resolves a method value's body through the module.
func (l *looper) Start() {
	go l.loop()
}

// Detached opts out with a reason.
func Detached() {
	//zerosum:detached process-lifetime ticker, dies with the process
	go func() {
		for {
		}
	}()
}
