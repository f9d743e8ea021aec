package gpu

import (
	"testing"

	"zerosum/internal/sim"
)

func testDevice(clockVal *sim.Time) *Device {
	info := DeviceInfo{VisibleIndex: 0, TrueIndex: 4, NUMAIndex: 3,
		Model: "AMD MI250X GCD", MemBytes: 64 << 30, GTTBytes: 256 << 30}
	return NewDevice(info, DefaultParams(), func() sim.Time { return *clockVal }, sim.NewRNG(1))
}

func TestSubmitSerializesKernels(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	c1 := d.Submit(100*sim.Millisecond, 0)
	c2 := d.Submit(50*sim.Millisecond, 0)
	if c1 != 100*sim.Millisecond {
		t.Fatalf("c1 = %v, want 100ms", c1)
	}
	if c2 != 150*sim.Millisecond {
		t.Fatalf("c2 = %v, want 150ms (serialized)", c2)
	}
	if d.KernelsLaunched() != 2 {
		t.Fatalf("kernels = %d", d.KernelsLaunched())
	}
}

func TestSubmitTransferTime(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	p := DefaultParams()
	// 36e9 bytes at 36 GB/s = 1 second of transfer.
	done := d.Submit(0, uint64(p.XferBytesPerSec))
	if got := done.Seconds(); got < 0.99 || got > 1.01 {
		t.Fatalf("transfer completion = %vs, want ~1s", got)
	}
}

func TestVRAMAllocation(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	if err := d.AllocVRAM(60 << 30); err != nil {
		t.Fatal(err)
	}
	if err := d.AllocVRAM(8 << 30); err == nil {
		t.Fatal("allocation beyond capacity should fail (OOM)")
	}
	if d.UsedVRAM() != 60<<30 {
		t.Fatalf("used = %d", d.UsedVRAM())
	}
	d.FreeVRAM(30 << 30)
	if d.UsedVRAM() != 30<<30 {
		t.Fatalf("used after free = %d", d.UsedVRAM())
	}
	d.FreeVRAM(1 << 40) // over-free clamps to zero
	if d.UsedVRAM() != 0 {
		t.Fatalf("over-free should clamp, used = %d", d.UsedVRAM())
	}
}

func TestSMISampleBusyWindow(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	smi := NewSimSMI([]*Device{d}, sim.NewRNG(2))
	// First sample at t=0: no window yet.
	if _, err := smi.Sample(0); err != nil {
		t.Fatal(err)
	}
	// Busy 300ms out of the next second.
	d.Submit(300*sim.Millisecond, 0)
	now = 1 * sim.Second
	m, err := smi.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeviceBusyPct < 28 || m.DeviceBusyPct > 32 {
		t.Fatalf("busy = %v%%, want ~30%%", m.DeviceBusyPct)
	}
	if m.ClockGFXMHz <= DefaultParams().BaseClockMHz {
		t.Fatalf("clock should ramp when busy, got %v", m.ClockGFXMHz)
	}
	if m.PowerAvgW <= DefaultParams().IdlePowerW {
		t.Fatalf("power should rise when busy, got %v", m.PowerAvgW)
	}
	// Idle window: busy back to ~0.
	now = 2 * sim.Second
	m2, err := smi.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.DeviceBusyPct != 0 {
		t.Fatalf("idle busy = %v%%, want 0", m2.DeviceBusyPct)
	}
	if m2.ClockGFXMHz != DefaultParams().BaseClockMHz {
		t.Fatalf("idle clock = %v, want base", m2.ClockGFXMHz)
	}
}

func TestSMIActivityCountersMonotonic(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	smi := NewSimSMI([]*Device{d}, nil)
	prev := 0.0
	for i := 1; i <= 5; i++ {
		d.Submit(100*sim.Millisecond, 10<<20)
		now = sim.Time(i) * sim.Second
		m, err := smi.Sample(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.GFXActivity < prev {
			t.Fatalf("GFX activity decreased: %v -> %v", prev, m.GFXActivity)
		}
		prev = m.GFXActivity
	}
	if prev == 0 {
		t.Fatal("activity counter never advanced")
	}
}

func TestSMIInfoAndErrors(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	smi := NewSimSMI([]*Device{d}, nil)
	if smi.DeviceCount() != 1 {
		t.Fatal("count")
	}
	info, err := smi.Info(0)
	if err != nil || info.TrueIndex != 4 || info.NUMAIndex != 3 {
		t.Fatalf("info = %+v, err %v", info, err)
	}
	if _, err := smi.Info(1); err == nil {
		t.Fatal("missing device should error")
	}
	if _, err := smi.Sample(-1); err == nil {
		t.Fatal("negative index should error")
	}
}

func TestMetricsValuesMatchNames(t *testing.T) {
	var m Metrics
	if len(m.Values()) != len(MetricNames) {
		t.Fatalf("Values len %d != MetricNames len %d", len(m.Values()), len(MetricNames))
	}
}

func TestBusySaturatesAt100(t *testing.T) {
	var now sim.Time
	d := testDevice(&now)
	smi := NewSimSMI([]*Device{d}, nil)
	smi.Sample(0)
	d.Submit(10*sim.Second, 0)
	now = 1 * sim.Second
	m, _ := smi.Sample(0)
	if m.DeviceBusyPct != 100 {
		t.Fatalf("busy = %v, want 100", m.DeviceBusyPct)
	}
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock should panic")
		}
	}()
	NewDevice(DeviceInfo{}, DefaultParams(), nil, nil)
}
