// Package gpu provides a vendor-neutral System Management Interface (SMI)
// in the style of ROCm SMI / NVIDIA NVML / Intel SysMan — the libraries
// ZeroSum queries for GPU utilization — plus a simulated accelerator device
// driven by offload traffic from the workload. The metric set matches the
// paper's Listing 2 (clocks, busy %, energy, activity counters, power,
// temperature, VRAM/GTT usage, voltage).
package gpu

import (
	"fmt"

	"zerosum/internal/sim"
)

// DeviceInfo identifies one accelerator.
type DeviceInfo struct {
	// VisibleIndex is the index the process sees (after
	// ROCR/CUDA_VISIBLE_DEVICES remapping); TrueIndex is the physical
	// device. The paper stresses that these differ (GCD 0 on Frontier is
	// "visible HIP index 0, true index 4").
	VisibleIndex int
	TrueIndex    int
	NUMAIndex    int
	Model        string
	MemBytes     uint64
	GTTBytes     uint64
}

// Metrics is one SMI sample: the Listing 2 metric set.
type Metrics struct {
	ClockGFXMHz      float64
	ClockSOCMHz      float64
	DeviceBusyPct    float64
	EnergyAvgJ       float64
	GFXActivity      float64 // accumulated activity counter
	GFXActivityPct   float64
	MemoryActivity   float64 // accumulated counter
	MemoryBusyPct    float64
	MemCtrlActivity  float64
	PowerAvgW        float64
	TemperatureC     float64
	UVDActivityPct   float64
	UsedGTTBytes     float64
	UsedVRAMBytes    float64
	UsedVisVRAMBytes float64
	VoltageMV        float64
}

// MetricNames lists the metric labels in report order (Listing 2).
var MetricNames = []string{
	"Clock Frequency, GLX (MHz)",
	"Clock Frequency, SOC (MHz)",
	"Device Busy %",
	"Energy Average (J)",
	"GFX Activity",
	"GFX Activity %",
	"Memory Activity",
	"Memory Busy %",
	"Memory Controller Activity",
	"Power Average (W)",
	"Temperature (C)",
	"UVD|VCN Activity",
	"Used GTT Bytes",
	"Used VRAM Bytes",
	"Used Visible VRAM Bytes",
	"Voltage (mV)",
}

// Values returns the metric values in MetricNames order.
func (m Metrics) Values() []float64 {
	return m.AppendValues(make([]float64, 0, len(MetricNames)))
}

// AppendValues appends the metric values in MetricNames order, letting the
// sampling loop reuse one scratch slice across ticks.
//
//zerosum:hotpath
func (m Metrics) AppendValues(dst []float64) []float64 {
	return append(dst,
		m.ClockGFXMHz, m.ClockSOCMHz, m.DeviceBusyPct, m.EnergyAvgJ,
		m.GFXActivity, m.GFXActivityPct, m.MemoryActivity, m.MemoryBusyPct,
		m.MemCtrlActivity, m.PowerAvgW, m.TemperatureC, m.UVDActivityPct,
		m.UsedGTTBytes, m.UsedVRAMBytes, m.UsedVisVRAMBytes, m.VoltageMV,
	)
}

// SMI is the management-library interface the monitor samples through.
type SMI interface {
	// DeviceCount returns how many devices this process can see.
	DeviceCount() int
	// Info describes a visible device.
	Info(i int) (DeviceInfo, error)
	// Sample reads the device's current metrics. Rate-style metrics
	// (busy %, power) cover the window since the previous Sample call.
	Sample(i int) (Metrics, error)
}

// Params shapes the simulated device's analog behaviour.
type Params struct {
	BaseClockMHz float64
	PeakClockMHz float64
	SOCClockMHz  float64
	IdlePowerW   float64
	TDPWatts     float64
	IdleTempC    float64
	HotTempC     float64
	IdleVoltMV   float64
	PeakVoltMV   float64
	// XferBytesPerSec is the host<->device link bandwidth used to turn
	// offloaded bytes into transfer time.
	XferBytesPerSec float64
	// ActivityPerBusySec converts busy time into the raw GFX activity
	// counter units the SMI exposes.
	ActivityPerBusySec float64
}

// DefaultParams returns MI250X-GCD-flavoured parameters.
func DefaultParams() Params {
	return Params{
		BaseClockMHz:       800,
		PeakClockMHz:       1700,
		SOCClockMHz:        1090,
		IdlePowerW:         90,
		TDPWatts:           280,
		IdleTempC:          35,
		HotTempC:           65,
		IdleVoltMV:         806,
		PeakVoltMV:         906,
		XferBytesPerSec:    36e9, // PCIe4 x16 / Infinity Fabric class
		ActivityPerBusySec: 180000,
	}
}

// Device is one simulated accelerator. Offload submissions serialize on the
// device queue; busy time integrates between samples. All methods take the
// current simulated time from the clock function so the device can be
// shared by the workload (submitting) and the monitor (sampling).
type Device struct {
	Info DeviceInfo
	P    Params

	clock func() sim.Time
	rng   *sim.RNG

	busyUntil   sim.Time
	lastAccrue  sim.Time
	accruedBusy sim.Time

	usedVRAM    uint64
	usedGTT     uint64
	gfxActivity float64
	memActivity float64

	kernelsLaunched uint64
	bytesMoved      uint64
}

// NewDevice creates a simulated device.
func NewDevice(info DeviceInfo, p Params, clock func() sim.Time, rng *sim.RNG) *Device {
	if clock == nil {
		panic("gpu: nil clock")
	}
	return &Device{Info: info, P: p, clock: clock, rng: rng}
}

// accrue integrates busy time up to now.
func (d *Device) accrue(now sim.Time) {
	if now <= d.lastAccrue {
		return
	}
	busyEnd := d.busyUntil
	if busyEnd > now {
		busyEnd = now
	}
	if busyEnd > d.lastAccrue {
		delta := busyEnd - d.lastAccrue
		d.accruedBusy += delta
		d.gfxActivity += d.P.ActivityPerBusySec * delta.Seconds()
	}
	d.lastAccrue = now
}

// Submit enqueues an offloaded kernel of the given device-time cost plus a
// host<->device transfer of the given size. It returns the completion time;
// the caller (workload) typically blocks until then. Kernels serialize in
// submission order, like a single HIP stream.
func (d *Device) Submit(work sim.Time, xferBytes uint64) sim.Time {
	now := d.clock()
	d.accrue(now)
	xfer := sim.Time(0)
	if xferBytes > 0 && d.P.XferBytesPerSec > 0 {
		xfer = sim.Time(float64(xferBytes) / d.P.XferBytesPerSec * float64(sim.Second))
		d.memActivity += float64(xferBytes) / (1 << 20) // counter in MB moved
		d.bytesMoved += xferBytes
	}
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + work + xfer
	d.kernelsLaunched++
	return d.busyUntil
}

// AllocVRAM reserves device memory, failing when the device is full
// (surfacing the resource-exhaustion case the paper's contention report is
// designed to catch).
func (d *Device) AllocVRAM(bytes uint64) error {
	if d.usedVRAM+bytes > d.Info.MemBytes {
		return fmt.Errorf("gpu: device %d out of memory: used %d + %d > %d",
			d.Info.VisibleIndex, d.usedVRAM, bytes, d.Info.MemBytes)
	}
	d.usedVRAM += bytes
	return nil
}

// FreeVRAM releases device memory.
func (d *Device) FreeVRAM(bytes uint64) {
	if bytes > d.usedVRAM {
		d.usedVRAM = 0
		return
	}
	d.usedVRAM -= bytes
}

// SetGTT sets the host-visible aperture usage.
func (d *Device) SetGTT(bytes uint64) { d.usedGTT = bytes }

// UsedVRAM returns current device-memory usage.
func (d *Device) UsedVRAM() uint64 { return d.usedVRAM }

// KernelsLaunched returns the number of Submit calls.
func (d *Device) KernelsLaunched() uint64 { return d.kernelsLaunched }

// BusyFraction reports the busy fraction over [since, now].
func (d *Device) BusyFraction(since sim.Time) float64 {
	now := d.clock()
	d.accrue(now)
	window := now - since
	if window <= 0 {
		return 0
	}
	// accruedBusy is total since creation; caller tracks the previous
	// total. This helper exists for tests; SMI sampling uses snapshots.
	return float64(d.accruedBusy) / float64(window)
}

// snapshot is per-device sampling state held by the SimSMI.
type snapshot struct {
	at   sim.Time
	busy sim.Time
}

// SimSMI exposes a set of simulated devices through the SMI interface,
// optionally restricted to a visibility list (the per-process
// ROCR_VISIBLE_DEVICES view Slurm's --gpu-bind creates).
type SimSMI struct {
	devices []*Device
	prev    []snapshot
	rng     *sim.RNG
}

// NewSimSMI wraps devices in an SMI. The order of the slice defines the
// visible indexes 0..n-1.
func NewSimSMI(devices []*Device, rng *sim.RNG) *SimSMI {
	return &SimSMI{devices: devices, prev: make([]snapshot, len(devices)), rng: rng}
}

// DeviceCount implements SMI.
func (s *SimSMI) DeviceCount() int { return len(s.devices) }

// Info implements SMI.
func (s *SimSMI) Info(i int) (DeviceInfo, error) {
	if i < 0 || i >= len(s.devices) {
		return DeviceInfo{}, fmt.Errorf("gpu: no device %d", i)
	}
	return s.devices[i].Info, nil
}

// Sample implements SMI.
func (s *SimSMI) Sample(i int) (Metrics, error) {
	if i < 0 || i >= len(s.devices) {
		return Metrics{}, fmt.Errorf("gpu: no device %d", i)
	}
	d := s.devices[i]
	now := d.clock()
	d.accrue(now)
	prev := s.prev[i]
	window := now - prev.at
	busyFrac := 0.0
	if window > 0 {
		busyFrac = float64(d.accruedBusy-prev.busy) / float64(window)
		if busyFrac > 1 {
			busyFrac = 1
		}
	}
	s.prev[i] = snapshot{at: now, busy: d.accruedBusy}

	p := d.P
	noise := func(scale float64) float64 {
		if s.rng == nil {
			return 0
		}
		return (s.rng.Float64() - 0.5) * scale
	}
	clock := p.BaseClockMHz
	if busyFrac > 0 {
		// Clocks race to near-peak under even moderate activity, as the
		// paper's listing shows (avg GFX clock 1614 MHz at 14.6% busy).
		ramp := busyFrac * 6
		if ramp > 1 {
			ramp = 1
		}
		clock = p.BaseClockMHz + (p.PeakClockMHz-p.BaseClockMHz)*ramp
	}
	power := p.IdlePowerW + (p.TDPWatts-p.IdlePowerW)*busyFrac + noise(4)
	if power < p.IdlePowerW {
		power = p.IdlePowerW
	}
	temp := p.IdleTempC + (p.HotTempC-p.IdleTempC)*busyFrac + noise(1)
	volt := p.IdleVoltMV + (p.PeakVoltMV-p.IdleVoltMV)*minf(busyFrac*3, 1)
	m := Metrics{
		ClockGFXMHz:      clock,
		ClockSOCMHz:      p.SOCClockMHz,
		DeviceBusyPct:    busyFrac * 100,
		EnergyAvgJ:       power * window.Seconds() / 15, // SMI's 64ms energy accumulator window scaling
		GFXActivity:      d.gfxActivity,
		GFXActivityPct:   busyFrac * 100 * 0.94, // shader partition of busy time
		MemoryActivity:   d.memActivity,
		MemoryBusyPct:    minf(busyFrac*100*0.05+float64(d.usedGTT>>30)*0.01, 100),
		MemCtrlActivity:  minf(busyFrac*2, 100),
		PowerAvgW:        power,
		TemperatureC:     temp,
		UVDActivityPct:   0, // no video decode in HPC workloads
		UsedGTTBytes:     float64(d.usedGTT),
		UsedVRAMBytes:    float64(d.usedVRAM),
		UsedVisVRAMBytes: float64(d.usedVRAM),
		VoltageMV:        volt,
	}
	return m, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

var _ SMI = (*SimSMI)(nil)
