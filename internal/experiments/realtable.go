package experiments

import (
	"adaptio/internal/core"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/ratelimit"
	"adaptio/internal/stream"
)

// RealCell is one measurement of the real-bytes Table II analogue.
type RealCell struct {
	Kind     corpus.Kind
	WireMBps float64
	Scheme   string
	Seconds  float64
	AppMBps  float64
	Ratio    float64 // wire/app bytes
	Switches int64
}

// RealTableIIConfig parameterizes the real-bytes sweep.
type RealTableIIConfig struct {
	// VolumeBytes per cell; zero means 24 MB (scaled down from the
	// paper's 50 GB so the sweep finishes in seconds).
	VolumeBytes int64
	// WireMBps are the emulated shared-NIC rates; nil means {80, 11}
	// (uncontended-ish vs heavily contended at the scaled volume).
	WireMBps []float64
	// Window is the decision interval; zero means 50 ms (scaled from 2 s
	// in proportion to the volume scaling).
	Window time.Duration
}

// RealTableII runs the Table II experiment with *real bytes*: the actual
// corpus generators, the actual from-scratch codecs, the production stream
// layer, and a real TCP loopback connection whose writer is token-bucket
// limited to the emulated wire rate. It complements the calibrated
// simulation (TableII): absolute numbers depend on this machine, but the
// orderings — LIGHT wins on compressible data on a starved wire, NO wins on
// incompressible data, DYNAMIC tracks the winner without being told —
// must match the paper.
//
// Schemes swept: NO, LIGHT (static) and DYNAMIC.
func RealTableII(cfg RealTableIIConfig) ([]RealCell, error) {
	if cfg.VolumeBytes == 0 {
		cfg.VolumeBytes = 24 << 20
	}
	if cfg.WireMBps == nil {
		cfg.WireMBps = []float64{80, 11}
	}
	if cfg.Window == 0 {
		cfg.Window = 50 * time.Millisecond
	}
	schemes := []struct {
		name string
		cfg  stream.WriterConfig
	}{
		{"NO", stream.WriterConfig{Policy: core.Static(stream.LevelNo)}},
		{"LIGHT", stream.WriterConfig{Policy: core.Static(stream.LevelLight)}},
		{"DYNAMIC", stream.WriterConfig{}},
	}
	var cells []RealCell
	for _, kind := range corpus.Kinds() {
		for _, wire := range cfg.WireMBps {
			for _, s := range schemes {
				wcfg := s.cfg
				wcfg.Window = cfg.Window
				cell, err := runRealCell(kind, wire, s.name, wcfg, cfg.VolumeBytes)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

func runRealCell(kind corpus.Kind, wireMBps float64, name string, wcfg stream.WriterConfig, volume int64) (RealCell, error) {
	var cell RealCell
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cell, err
	}
	defer ln.Close()
	recvDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			recvDone <- err
			return
		}
		defer conn.Close()
		r, err := stream.NewReader(conn)
		if err != nil {
			recvDone <- err
			return
		}
		_, err = io.Copy(io.Discard, r)
		recvDone <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return cell, err
	}
	defer conn.Close()
	limited, err := ratelimit.NewWriter(conn, wireMBps*1e6, 64<<10)
	if err != nil {
		return cell, err
	}
	w, err := stream.NewWriter(limited, wcfg)
	if err != nil {
		return cell, err
	}
	start := time.Now()
	if _, err := io.CopyN(w, corpus.NewFileReader(kind, 1), volume); err != nil {
		return cell, err
	}
	if err := w.Close(); err != nil {
		return cell, err
	}
	elapsed := time.Since(start)
	conn.Close()
	if err := <-recvDone; err != nil {
		return cell, fmt.Errorf("receiver: %w", err)
	}
	st := w.Stats()
	return RealCell{
		Kind:     kind,
		WireMBps: wireMBps,
		Scheme:   name,
		Seconds:  elapsed.Seconds(),
		AppMBps:  float64(st.AppBytes) / 1e6 / elapsed.Seconds(),
		Ratio:    float64(st.WireBytes) / float64(st.AppBytes),
		Switches: st.LevelSwitches,
	}, nil
}

// RenderRealTableII formats the real-bytes sweep grouped by wire rate.
func RenderRealTableII(cells []RealCell) string {
	var sb strings.Builder
	sb.WriteString("--- Real-bytes Table II analogue (this machine, real TCP, real codecs) ---\n")
	var last string
	for _, c := range cells {
		group := fmt.Sprintf("%v data, %.0f MB/s wire:", c.Kind, c.WireMBps)
		if group != last {
			fmt.Fprintf(&sb, "%s\n", group)
			last = group
		}
		fmt.Fprintf(&sb, "  %-8s %6.2f s  app %6.1f MB/s  ratio %.3f  switches %d\n",
			c.Scheme, c.Seconds, c.AppMBps, c.Ratio, c.Switches)
	}
	return sb.String()
}
