package export

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestStreamPublishSubscribe(t *testing.T) {
	var s Stream
	var got []Event
	s.Subscribe(func(ev Event) { got = append(got, ev) })
	s.Subscribe(nil) // ignored
	s.Publish(Event{Kind: EventHeartbeat, TimeSec: 1})
	s.Publish(Event{Kind: EventHeartbeat, TimeSec: 2})
	if len(got) != 2 || got[1].TimeSec != 2 {
		t.Fatalf("delivered %v", got)
	}
	if s.Published() != 2 {
		t.Fatalf("published = %d", s.Published())
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d", s.Dropped())
	}
}

// TestStreamPanickingSubscriber checks a panicking subscriber cannot kill
// the sampling loop and that the loss is counted and later subscribers
// still receive the event.
func TestStreamPanickingSubscriber(t *testing.T) {
	var s Stream
	var after int
	s.Subscribe(func(Event) { panic("bad subscriber") })
	s.Subscribe(func(Event) { after++ })
	for i := 0; i < 3; i++ {
		s.Publish(Event{Kind: EventHeartbeat})
	}
	if after != 3 {
		t.Fatalf("subscriber after the panicking one got %d events, want 3", after)
	}
	if s.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", s.Dropped())
	}
	if s.Published() != 3 {
		t.Fatalf("published = %d, want 3", s.Published())
	}
}

// TestStreamConcurrent exercises concurrent Publish/Subscribe/Published
// under -race: the agent goroutine consumes the stream from outside the
// monitor loop.
func TestStreamConcurrent(t *testing.T) {
	var s Stream
	var delivered atomic.Uint64
	var wg sync.WaitGroup
	const (
		publishers = 4
		perPub     = 1000
		lateSubs   = 16
	)
	s.Subscribe(func(Event) { delivered.Add(1) })
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				s.Publish(Event{Kind: EventHeartbeat, TimeSec: float64(i)})
			}
		}()
	}
	for j := 0; j < lateSubs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Subscribe(func(Event) { delivered.Add(1) })
			_ = s.Published()
			_ = s.Dropped()
		}()
	}
	wg.Wait()
	if s.Published() != publishers*perPub {
		t.Fatalf("published = %d, want %d", s.Published(), publishers*perPub)
	}
	// The original subscriber saw everything; late subscribers saw a suffix.
	if delivered.Load() < publishers*perPub {
		t.Fatalf("delivered = %d, want >= %d", delivered.Load(), publishers*perPub)
	}
}

// TestStreamPublishZeroAlloc pins the hot-path contract: publishing with a
// subscriber attached must not allocate. AllocsPerRun counts
// process-global mallocs, so the subscriber is a plain closure with no
// background machinery behind it.
func TestStreamPublishZeroAlloc(t *testing.T) {
	ev := Event{
		Kind:    EventLWP,
		TimeSec: 1.0,
		LWP:     &LWPSample{TID: 42, Kind: "Main", State: 'R', UserPct: 90, CPU: 3},
	}
	var s Stream
	delivered := 0
	s.Subscribe(func(Event) { delivered++ })
	if avg := testing.AllocsPerRun(1000, func() { s.Publish(ev) }); avg != 0 {
		t.Errorf("Stream.Publish allocates %.1f times per op with a subscriber attached, want 0", avg)
	}
	if delivered == 0 {
		t.Error("subscriber never ran")
	}
}
