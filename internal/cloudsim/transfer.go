package cloudsim

import (
	"errors"
	"fmt"
	"math"

	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/xrand"
)

// GuestMetrics is the set of OS-displayed system metrics a metric-driven
// compression scheme (Section V's related work) can query inside the guest.
// Crucially these carry the virtualization distortions of Section II: the
// displayed idle percentage reflects the guest's skewed accounting, not the
// host's true cost.
type GuestMetrics struct {
	// DisplayedIdlePct is the idle CPU percentage shown by the guest's
	// /proc/stat. Under paravirtualized I/O it stays high even when the
	// host burns a full core on the VM's traffic.
	DisplayedIdlePct float64
	// DisplayedBandwidthMBps is what a guest-side bandwidth probe (an
	// NWS-style sensor) reports for the network path, wire bytes per
	// second, including contention fluctuation.
	DisplayedBandwidthMBps float64
	// CompressorMBps is the rate (application MB/s) at which a dedicated
	// compression thread could produce output at the current level.
	CompressorMBps float64
	// NetDrainMBps is the wire-layer rate the network actually drains.
	NetDrainMBps float64
	// WindowSeconds is the length of the elapsed window.
	WindowSeconds float64
}

// MetricsScheme is the simulator-only extension of core.Policy for the
// metric-driven related-work baselines (internal/baseline): policies that
// additionally consume guest-displayed metrics, the input Ablation A4 is
// about. RunTransfer calls ObserveMetrics immediately before Observe for
// every window.
type MetricsScheme interface {
	core.Policy
	ObserveMetrics(GuestMetrics)
}

// KindSchedule maps a byte offset of the application stream to a corpus
// kind; it expresses workloads whose compressibility changes over time
// (Figure 6 alternates HIGH and LOW every 10 GB).
type KindSchedule func(offset int64) corpus.Kind

// ConstantKind returns a schedule that always yields k.
func ConstantKind(k corpus.Kind) KindSchedule {
	return func(int64) corpus.Kind { return k }
}

// AlternatingKinds returns a schedule cycling through kinds every `every`
// bytes.
func AlternatingKinds(every int64, kinds ...corpus.Kind) KindSchedule {
	if every <= 0 || len(kinds) == 0 {
		panic("cloudsim: invalid alternating schedule")
	}
	return func(off int64) corpus.Kind {
		return kinds[(off/every)%int64(len(kinds))]
	}
}

// TransferConfig describes one sender->receiver bulk transfer experiment
// (the Section IV sample job: a Nephele sender task streaming a test file
// over a TCP network channel to a receiver task on another VM).
type TransferConfig struct {
	// Platform of both VMs. The evaluation used KVM paravirt.
	Platform Platform
	// Kind schedules the data compressibility by stream offset.
	Kind KindSchedule
	// TotalBytes is the application data volume (paper: 50 GB).
	TotalBytes int64
	// Background is the number of co-located concurrent TCP connections.
	Background int
	// WindowSeconds is the decision interval t (paper: 2 s).
	WindowSeconds float64
	// Policy picks compression levels (core.Static for the paper's
	// static rows). Must select levels within len(Profiles).
	Policy core.Policy
	// Profiles is the codec profile ladder (index = level).
	Profiles []CodecProfile
	// Seed drives all stochastic components.
	Seed uint64
	// Trace, if non-nil, receives one sample per decision window.
	Trace func(WindowSample)
	// MaxSimSeconds aborts runaway simulations; zero means 24 h.
	MaxSimSeconds float64
}

// WindowSample is one decision window of a simulated transfer; it carries
// everything Figures 4–6 plot: time, throughput at both layers, the selected
// level and the sender's CPU utilization as displayed inside the VM.
type WindowSample struct {
	// Time is the window's end, in seconds since transfer start.
	Time float64
	// Level active during the window.
	Level int
	// AppMBps is the application-layer throughput (pre-compression).
	AppMBps float64
	// WireMBps is the network-layer throughput (post-compression).
	WireMBps float64
	// GuestCPU is the CPU utilization displayed inside the sending VM.
	GuestCPU CPUBreakdown
	// Kind is the data compressibility during this window.
	Kind corpus.Kind
}

// TransferResult summarizes a completed transfer.
type TransferResult struct {
	// CompletionSeconds is the job completion time (Table II's metric).
	CompletionSeconds float64
	// AppBytes and WireBytes total the two layers.
	AppBytes  int64
	WireBytes int64
	// Windows is the number of decision windows executed.
	Windows int
	// LevelSeconds accumulates simulated time spent per level.
	LevelSeconds []float64
	// LevelSwitches counts level changes.
	LevelSwitches int
}

// MeanLevel returns the time-weighted mean compression level.
func (r TransferResult) MeanLevel() float64 {
	var num, den float64
	for l, s := range r.LevelSeconds {
		num += float64(l) * s
		den += s
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// RunTransfer simulates one bulk transfer and returns its completion time.
//
// # Pipeline model
//
// Within one decision window the sender VM (1 vCPU, as in the appendix)
// runs compression and the network stack on the same core, while the NIC
// transfer overlaps with computation through kernel buffering. The steady
// state application rate is therefore the inverse of the slowest stage:
//
//	cpuSecPerByte  = (1/comp(l,k) + ratio(l,k)/wireCPUMBps) / CPUShare(bg)
//	netSecPerByte  = ratio(l,k) / (net.appMBps * NetShare(bg) * noise)
//	recvSecPerByte = 1/decomp(l,k) + ratio(l,k)/wireCPUMBps
//	rate           = 1 / max(cpuSecPerByte, netSecPerByte, recvSecPerByte)
//
// wireCPUMBps (150 MB/s) is the VM's TCP-stack processing capacity per wire
// byte, calibrated with the level speeds in ReferenceProfiles so the model
// inverts Table II (see EXPERIMENTS.md). The network's flow control
// backpressures the whole pipeline, which is why the receiver's
// decompression appears in the max — exactly the effect the paper describes
// ("the application data rate also includes the decompression time at the
// receiver because of the network's flow control mechanisms").
func RunTransfer(cfg TransferConfig) (TransferResult, error) {
	var res TransferResult
	if cfg.TotalBytes <= 0 {
		return res, errors.New("cloudsim: TotalBytes must be positive")
	}
	if cfg.Policy == nil {
		return res, errors.New("cloudsim: nil policy")
	}
	if cfg.Kind == nil {
		return res, errors.New("cloudsim: nil kind schedule")
	}
	if err := ValidateLadder(cfg.Profiles); err != nil {
		return res, err
	}
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = 2
	}
	if cfg.MaxSimSeconds <= 0 {
		cfg.MaxSimSeconds = 24 * 3600
	}
	net, ok := netTable[cfg.Platform]
	if !ok {
		return res, fmt.Errorf("cloudsim: unknown platform %v", cfg.Platform)
	}

	rng := xrand.New(cfg.Seed ^ 0xC0FFEE)
	flake := newFlakeProcess(net, rng.Fork())
	slow := newSlowNoise(cfg.Background, rng.Fork())

	res.LevelSeconds = make([]float64, len(cfg.Profiles))
	level := cfg.Policy.Level()
	if level < 0 || level >= len(cfg.Profiles) {
		return res, fmt.Errorf("cloudsim: policy starts at invalid level %d", level)
	}

	var sent int64
	now := 0.0
	prevLevel := level
	for sent < cfg.TotalBytes {
		if now > cfg.MaxSimSeconds {
			return res, fmt.Errorf("cloudsim: transfer exceeded %v simulated seconds (sent %d of %d)",
				cfg.MaxSimSeconds, sent, cfg.TotalBytes)
		}
		kind := cfg.Kind(sent)
		p := cfg.Profiles[level]
		ratio := p.Ratio[kind]

		// Stage costs in seconds per application byte (MB units cancel).
		// The small multiplicative noise on the CPU stage reflects
		// scheduling jitter; it gives CPU-bound configurations the
		// nonzero run-to-run deviations Table II reports.
		compSec := 1 / p.CompMBps[kind]
		ioSec := ratio / wireCPUMBps
		cpu := (compSec + ioSec) / CPUShare(cfg.Background) * rng.NoiseFactor(0.012)
		compFrac := compSec / (compSec + ioSec)
		netRate := net.appMBps * NetShare(cfg.Background) * thinFlowShare(cfg.Background, ratio) *
			rng.NoiseFactor(net.sigma) * slow.factor(now) * flake.factor(now)
		if netRate < minNetMBps {
			netRate = minNetMBps
		}
		netSec := ratio / netRate
		recv := 1/p.DecompMBps[kind] + ratio/wireCPUMBps
		secPerMB := math.Max(cpu, math.Max(netSec, recv))
		rateMBps := 1 / secPerMB

		// Advance one window (or less if the transfer finishes inside it).
		windowBytes := int64(rateMBps * 1e6 * cfg.WindowSeconds)
		if windowBytes < 1 {
			windowBytes = 1
		}
		dt := cfg.WindowSeconds
		if sent+windowBytes >= cfg.TotalBytes {
			remaining := cfg.TotalBytes - sent
			dt = float64(remaining) / (rateMBps * 1e6)
			windowBytes = remaining
		}
		sent += windowBytes
		now += dt
		res.AppBytes += windowBytes
		res.WireBytes += int64(float64(windowBytes) * ratio)
		res.LevelSeconds[level] += dt
		res.Windows++

		appMBps := float64(windowBytes) / 1e6 / dt
		if ms, ok := cfg.Policy.(MetricsScheme); ok {
			guestCPU := senderGuestCPU(cfg.Platform, cpu, compFrac, appMBps, rng)
			idle := 100 - guestCPU.Total()
			if idle < 0 {
				idle = 0
			}
			ms.ObserveMetrics(GuestMetrics{
				DisplayedIdlePct:       idle,
				DisplayedBandwidthMBps: netRate,
				CompressorMBps:         (1 / cpu) * rng.NoiseFactor(0.02),
				NetDrainMBps:           netRate,
				WindowSeconds:          dt,
			})
		}
		if cfg.Trace != nil {
			cfg.Trace(WindowSample{
				Time:     now,
				Level:    level,
				AppMBps:  appMBps,
				WireMBps: appMBps * ratio,
				GuestCPU: senderGuestCPU(cfg.Platform, cpu, compFrac, appMBps, rng),
				Kind:     kind,
			})
		}

		// Feed the observed rate (bytes/second, as the stream layer
		// measures it) to the policy.
		level = cfg.Policy.Observe(core.Window{Rate: appMBps * 1e6})
		if level < 0 || level >= len(cfg.Profiles) {
			return res, fmt.Errorf("cloudsim: policy chose invalid level %d", level)
		}
		if level != prevLevel {
			res.LevelSwitches++
			prevLevel = level
		}
	}
	res.CompletionSeconds = now
	return res, nil
}

// wireCPUMBps is the sender VM's TCP-stack capacity: how many MB of wire
// bytes one vCPU can push per second if it did nothing else. Calibrated
// jointly with ReferenceProfiles against Table II.
const wireCPUMBps = 150

// minNetMBps floors the fluctuating network rate; EC2's collapses go "to
// zero" at millisecond scale but a 2 s window always moves some bytes.
const minNetMBps = 0.5

// thinFlowShare models a second-order TCP effect visible in Table II: under
// contention a *compressed* flow demands fewer wire bytes, holds a smaller
// congestion window and therefore recovers more slowly against saturating
// background flows, losing a little more than its volume-proportional share.
// The penalty scales with how thin the flow is (1-ratio) and vanishes
// without background traffic. Calibrated so LIGHT and MEDIUM on MODERATE
// data approach the near-tie the paper reports at three background
// connections (1027 s vs 953 s).
func thinFlowShare(bg int, ratio float64) float64 {
	if bg <= 0 {
		return 1
	}
	if ratio > 1 {
		ratio = 1
	}
	return 1 - 0.25*(1-ratio)
}

// slowNoise is a low-frequency contention process: co-located VM load
// varies on a tens-of-seconds timescale, which is what gives the paper's
// completion times their run-to-run standard deviations. One multiplicative
// factor is drawn per epoch; its amplitude grows with the number of
// background connections.
type slowNoise struct {
	rng      *xrand.RNG
	sigma    float64
	epochSec float64
	epoch    int
	value    float64
}

func newSlowNoise(bg int, rng *xrand.RNG) *slowNoise {
	return &slowNoise{rng: rng, sigma: 0.03 * float64(bg), epochSec: 40, epoch: -1, value: 1}
}

func (s *slowNoise) factor(now float64) float64 {
	if s.sigma == 0 {
		return 1
	}
	e := int(now / s.epochSec)
	if e != s.epoch {
		s.epoch = e
		s.value = s.rng.NoiseFactor(s.sigma)
	}
	return s.value
}

// senderGuestCPU converts the window's CPU cost into the utilization split
// displayed inside the guest, applying the platform's accounting distortion
// (the guest systematically under-reports I/O processing, Section II-A).
// compFrac is the fraction of the true cost spent in user-mode compression,
// which the guest accounts correctly; the I/O remainder is shown shrunk by
// the platform's guest/host visibility ratio.
func senderGuestCPU(p Platform, cpuSecPerMB, compFrac, appMBps float64, rng *xrand.RNG) CPUBreakdown {
	util := cpuSecPerMB * appMBps * 100 // percent of one core, true cost
	if util > 100 {
		util = 100
	}
	guest, host, _ := Accounting(p, NetSend)
	hostTotal := host.Total()
	visibility := 1.0
	if hostTotal > 0 && p != Native {
		visibility = guest.Total() / hostTotal
	}
	usr := util * compFrac
	ioPart := util - usr
	visIO := ioPart * visibility
	scale := func(f float64) float64 { return f * (1 + 0.05*rng.Norm()) }
	gt := guest.Total()
	if gt == 0 {
		gt = 1
	}
	return CPUBreakdown{
		USR:   scale(usr + visIO*guest.USR/gt),
		SYS:   scale(visIO * guest.SYS / gt),
		HIRQ:  scale(visIO * guest.HIRQ / gt),
		SIRQ:  scale(visIO * guest.SIRQ / gt),
		STEAL: scale(visIO * guest.STEAL / gt),
	}
}

// flakeProcess models EC2's regime-switching throughput: occasional windows
// where the achievable rate collapses, as reported by Wang & Ng and
// reproduced in Section II-B.
type flakeProcess struct {
	enabled bool
	rng     *xrand.RNG
	lowTil  float64
}

func newFlakeProcess(net netParams, rng *xrand.RNG) *flakeProcess {
	return &flakeProcess{enabled: net.flaky, rng: rng}
}

func (f *flakeProcess) factor(now float64) float64 {
	if !f.enabled {
		return 1
	}
	if now < f.lowTil {
		return 0.05 + 0.1*f.rng.Float64()
	}
	// ~8% of windows enter a collapse lasting up to ~3 s.
	if f.rng.Float64() < 0.08 {
		f.lowTil = now + 0.5 + 2.5*f.rng.Float64()
		return 0.05 + 0.1*f.rng.Float64()
	}
	return 1
}
