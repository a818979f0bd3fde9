package cloudsim

import (
	"errors"
	"fmt"
	"math"

	"adaptio/internal/core"
	"adaptio/internal/xrand"
)

// FileTransferResult extends TransferResult with durability accounting: on
// platforms with the host-page-cache anomaly, the VM considers the job done
// while gigabytes still sit in the host's RAM. The paper calls this out as
// the obstacle that made them exclude file I/O from the evaluation ("we
// found the aggressive caching mechanisms of some virtualization
// technologies to be a major obstacle which we intend to address for future
// work") — RunFileTransfer implements that future-work experiment.
type FileTransferResult struct {
	TransferResult
	// DurableSeconds is when the last byte actually reached the physical
	// disk (>= CompletionSeconds).
	DurableSeconds float64
	// CacheResidentAtCompletion is how many wire bytes sat in the host
	// cache when the application finished writing.
	CacheResidentAtCompletion int64
}

// RunFileTransfer simulates a bulk write to the VM's virtual disk through
// the compression module, mirroring Nephele's file channels. The policy
// observes the application data rate exactly as in the network case
// — which, on platforms whose host absorbs writes into its page cache,
// means it observes RAM-speed bursts alternating with flush stalls instead
// of anything related to the disk. The experiment quantifies how badly this
// distorts the rate-based decisions.
func RunFileTransfer(cfg TransferConfig) (FileTransferResult, error) {
	var res FileTransferResult
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
		cfg.MaxSimSeconds = 48 * 3600
	}
	disk, ok := diskTable[cfg.Platform]
	if !ok {
		return res, fmt.Errorf("cloudsim: unknown platform %v", cfg.Platform)
	}

	rng := xrand.New(cfg.Seed ^ 0xF11E)
	res.LevelSeconds = make([]float64, len(cfg.Profiles))
	level := cfg.Policy.Level()
	if level < 0 || level >= len(cfg.Profiles) {
		return res, fmt.Errorf("cloudsim: policy starts at invalid level %d", level)
	}

	// Host page cache state (XEN model): wire bytes buffered but not yet
	// on disk. The flusher drains at disk speed continuously once dirty
	// data exists.
	var dirty float64
	var sent int64
	now := 0.0
	prevLevel := level
	for sent < cfg.TotalBytes {
		if now > cfg.MaxSimSeconds {
			return res, fmt.Errorf("cloudsim: file transfer exceeded %v simulated seconds", cfg.MaxSimSeconds)
		}
		kind := cfg.Kind(sent)
		p := cfg.Profiles[level]
		ratio := p.Ratio[kind]

		cpuSec := (1/p.CompMBps[kind] + ratio/wireCPUMBps) * rng.NoiseFactor(0.012)
		diskRate := disk.diskMBps * rng.NoiseFactor(disk.sigma) // wire MB/s to platters

		var ingestWire float64 // wire MB/s the VM's writes are accepted at
		if disk.hostCache {
			if dirty < disk.dirtyLimit {
				// Cache absorbs at RAM speed.
				ingestWire = disk.cacheMBps * rng.NoiseFactor(0.10)
			} else {
				// Writeback throttling: the guest is stalled to a
				// trickle until the flusher catches up.
				ingestWire = disk.stallMBps * rng.NoiseFactor(0.30)
			}
		} else {
			ingestWire = diskRate
		}

		appRate := 1 / math.Max(cpuSec, ratio/ingestWire)
		windowBytes := int64(appRate * 1e6 * cfg.WindowSeconds)
		if windowBytes < 1 {
			windowBytes = 1
		}
		dt := cfg.WindowSeconds
		if sent+windowBytes >= cfg.TotalBytes {
			remaining := cfg.TotalBytes - sent
			dt = float64(remaining) / (appRate * 1e6)
			windowBytes = remaining
		}
		wireBytes := float64(windowBytes) * ratio

		if disk.hostCache {
			dirty += wireBytes / 1e6 * 1e6 // bytes
			dirty -= diskRate * 1e6 * dt   // flusher drains continuously
			if dirty < 0 {
				dirty = 0
			}
		}

		sent += windowBytes
		now += dt
		res.AppBytes += windowBytes
		res.WireBytes += int64(wireBytes)
		res.LevelSeconds[level] += dt
		res.Windows++

		appMBps := float64(windowBytes) / 1e6 / dt
		if cfg.Trace != nil {
			cfg.Trace(WindowSample{
				Time:     now,
				Level:    level,
				AppMBps:  appMBps,
				WireMBps: appMBps * ratio,
				GuestCPU: senderGuestCPU(cfg.Platform, cpuSec, 0.5, appMBps, rng),
				Kind:     kind,
			})
		}
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
	res.CacheResidentAtCompletion = int64(dirty)
	res.DurableSeconds = now
	if dirty > 0 {
		res.DurableSeconds = now + dirty/1e6/disk.diskMBps
	}
	return res, nil
}
