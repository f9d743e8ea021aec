package aggd

import "zerosum/internal/export"

// eventSlot is one ring entry holding a deep copy of a stream event. Event
// payload pointers are borrowed from the publisher (the monitor reuses one
// sample struct per kind across ticks — see export.Event), so the ring must
// copy the payload at enqueue time; the inline per-kind fields make that a
// single struct assignment with no allocation.
type eventSlot struct {
	kind    export.EventKind
	timeSec float64
	lwp     export.LWPSample
	hwt     export.HWTSample
	gpu     export.GPUSample
	mem     export.MemSample
	io      export.IOSample
}

// store copies ev (and the payload it points to) into the slot.
//
//zerosum:hotpath
func (s *eventSlot) store(ev export.Event) {
	s.kind = ev.Kind
	s.timeSec = ev.TimeSec
	switch ev.Kind {
	case export.EventLWP:
		if ev.LWP != nil {
			s.lwp = *ev.LWP
		}
	case export.EventHWT:
		if ev.HWT != nil {
			s.hwt = *ev.HWT
		}
	case export.EventGPU:
		if ev.GPU != nil {
			s.gpu = *ev.GPU
		}
	case export.EventMem:
		if ev.Mem != nil {
			s.mem = *ev.Mem
		}
	case export.EventIO:
		if ev.IO != nil {
			s.io = *ev.IO
		}
	}
}

// event rebuilds the export.Event view over the slot's own payload storage.
// The returned event is only valid while the slot is.
func (s *eventSlot) event() export.Event {
	ev := export.Event{Kind: s.kind, TimeSec: s.timeSec}
	switch s.kind {
	case export.EventLWP:
		ev.LWP = &s.lwp
	case export.EventHWT:
		ev.HWT = &s.hwt
	case export.EventGPU:
		ev.GPU = &s.gpu
	case export.EventMem:
		ev.Mem = &s.mem
	case export.EventIO:
		ev.IO = &s.io
	}
	return ev
}
