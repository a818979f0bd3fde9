// Command actunnel runs an adaptive-compression TCP tunnel endpoint. A pair
// of actunnel processes transparently compresses any TCP application's
// traffic with the paper's rate-based scheme — the "infrastructure
// agnostic" deployment the paper argues for: no hypervisor, kernel or
// application changes, just a relay the cloud customer controls.
//
//	# on the remote VM (exit): forward decompressed traffic to the service
//	actunnel -mode exit -listen :9000 -target 127.0.0.1:5432
//
//	# locally (entry): applications connect here with plain TCP
//	actunnel -mode entry -listen 127.0.0.1:5432 -target remote-vm:9000
//
// Each connection direction adapts its compression level independently from
// its observed application data rate.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"adaptio"
	"adaptio/internal/block"
	"adaptio/internal/compress/probe"
	"adaptio/internal/coord"
	"adaptio/internal/core"
	"adaptio/internal/obs"
	"adaptio/internal/tunnel"
)

func main() {
	var (
		mode        = flag.String("mode", "", "entry (plain in, compressed out) or exit (compressed in, plain out)")
		listen      = flag.String("listen", "", "address to listen on")
		target      = flag.String("target", "", "address to forward to (exit endpoint or final service)")
		window      = flag.Duration("window", 2*time.Second, "decision window t")
		alpha       = flag.Float64("alpha", adaptio.DefaultAlpha, "tolerance band alpha")
		static      = flag.Int("static", -1, "static level 0..3, or -1 for adaptive")
		decider     = flag.String("decider", "", "level-selection policy for adaptive mode (under -coord, each stream's detach fallback): algone (default), bandit, or ewma")
		deciderSeed = flag.Uint64("decider-seed", 0, "seed for stochastic -decider policies")
		quiet       = flag.Bool("q", false, "suppress per-connection statistics")
		noProbe     = flag.Bool("no-probe", false, "disable the entropy pre-probe and run every block through the codec, even ones judged incompressible")

		passthrough = flag.Bool("passthrough", false, "relay raw bytes with no framing or compression (both endpoints must agree; -static/-window/-alpha/-coord do not apply)")
		flushIvl    = flag.Duration("flush-interval", 0, "max time a partial block may wait for more bytes before being framed (0 = default 5ms, negative = only flush full blocks)")

		idleTimeout = flag.Duration("idle-timeout", 0, "tear down a connection direction after this long without traffic (0 = never)")
		dialRetries = flag.Int("dial-retries", 0, "extra dial attempts after the first fails, with exponential backoff")
		dialBackoff = flag.Duration("dial-backoff", tunnel.DefaultDialBackoff, "base backoff between dial attempts")
		grace       = flag.Duration("grace", 0, "drain time granted to active connections on shutdown (0 = close immediately)")
		maxConns    = flag.Int("max-conns", 0, "serve at most this many connections concurrently, shedding excess (0 = unlimited)")
		acceptQueue = flag.Int("accept-queue", 0, "connections beyond -max-conns that may wait for a slot before shedding (0 = shed immediately)")
		metricsAddr = flag.String("metrics-addr", "", "serve the JSON metrics snapshot over HTTP on this address (empty = off)")

		coordOn     = flag.Bool("coord", false, "coordinate compression levels across this endpoint's connections against a shared link budget instead of letting each adapt alone")
		coordBudget = flag.Float64("coord-budget", coord.DefaultBudgetBytesPerSec/1e6, "shared link budget for -coord, in MB/s of wire bytes")
		coordWeight = flag.Float64("coord-weight", 1, "fair-share weight of this endpoint's streams under -coord")
		coordTenant = flag.String("coord-tenant", "", "tenant label for this endpoint's streams under -coord")
	)
	flag.Parse()
	if *listen == "" || *target == "" || (*mode != "entry" && *mode != "exit") {
		flag.Usage()
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	block.PublishMetrics(reg.Scope("block"))
	cfg := tunnel.Config{
		Window:        *window,
		Logf:          log.Printf,
		IdleTimeout:   *idleTimeout,
		DialRetries:   *dialRetries,
		DialBackoff:   *dialBackoff,
		ShutdownGrace: *grace,
		MaxConns:      *maxConns,
		AcceptQueue:   *acceptQueue,
		Passthrough:   *passthrough,
		FlushInterval: *flushIvl,
		Obs:           reg.Scope("tunnel"),
	}
	if *decider != "" && *static != -1 {
		log.Fatalf("actunnel: -decider is incompatible with -static (a pinned level leaves nothing to decide)")
	}
	if *metricsAddr != "" {
		reg.PublishExpvar("adaptio")
		go func() {
			if err := obs.ListenAndServe(*metricsAddr, reg); err != nil {
				log.Printf("actunnel: metrics server: %v", err)
			}
		}()
	}
	if *noProbe {
		pr := probe.Disabled()
		cfg.Probe = &pr
	}
	switch {
	case *static != -1:
		if *coordOn {
			log.Fatalf("actunnel: -coord is incompatible with -static (a pinned level leaves nothing to coordinate)")
		}
		cfg.Policy = tunnel.StaticPolicy(*static)
	case *coordOn:
		if *passthrough {
			log.Fatalf("actunnel: -coord is incompatible with -passthrough (an unframed relay has no levels to coordinate)")
		}
		c, err := coord.New(coord.Config{
			BudgetBytesPerSec: *coordBudget * 1e6,
			Levels:            len(adaptio.DefaultLadder()),
			Alpha:             *alpha,
			SoloPolicy:        *decider,
			SoloSeed:          *deciderSeed,
			Obs:               reg.Scope("coord"),
		})
		if err != nil {
			log.Fatalf("actunnel: %v", err)
		}
		cfg.Policy = tunnel.CoordPolicy(c, coord.StreamConfig{Weight: *coordWeight, Tenant: *coordTenant})
	default:
		var err error
		cfg.Policy, err = tunnel.DeciderPolicy(*decider, core.Config{
			Levels: len(adaptio.DefaultLadder()),
			Alpha:  *alpha,
			Seed:   *deciderSeed,
		})
		if err != nil {
			log.Fatalf("actunnel: -decider: %v", err)
		}
	}
	if !*quiet {
		names := adaptio.DefaultLadder().Names()
		cfg.OnDone = func(s tunnel.ConnStats) {
			ratio := 1.0
			if s.Stats.AppBytes > 0 {
				ratio = float64(s.Stats.WireBytes) / float64(s.Stats.AppBytes)
			}
			line := fmt.Sprintf("%s: %d app B -> %d wire B (ratio %.3f), switches %d, levels",
				s.Direction, s.Stats.AppBytes, s.Stats.WireBytes, ratio, s.Stats.LevelSwitches)
			for lvl, blocks := range s.Stats.BlocksPerLevel {
				if blocks > 0 {
					line += fmt.Sprintf(" %s=%d", names[lvl], blocks)
				}
			}
			log.Print(line)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		ep  *tunnel.Endpoint
		err error
	)
	if *mode == "entry" {
		ep, err = tunnel.ListenEntry(ctx, *listen, *target, cfg)
	} else {
		ep, err = tunnel.ListenExit(ctx, *listen, *target, cfg)
	}
	if err != nil {
		log.Fatalf("actunnel: %v", err)
	}
	log.Printf("actunnel %s endpoint on %s -> %s", *mode, ep.Addr(), *target)
	<-ctx.Done()
	ep.Close()
}
