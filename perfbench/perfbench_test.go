package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/ratelimit"
	"adaptio/internal/tunnel"
)

// startPair starts an exit toward target and an entry toward the exit,
// both wrapping their wire side with wrap.
func startPair(t *testing.T, target string, wrap func(net.Conn) net.Conn) *tunnel.Endpoint {
	t.Helper()
	ctx := context.Background()
	exit, err := tunnel.ListenExit(ctx, "127.0.0.1:0", target, tunnel.Config{WrapWire: wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exit.Close() })
	entry, err := tunnel.ListenEntry(ctx, "127.0.0.1:0", exit.Addr().String(), tunnel.Config{WrapWire: wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { entry.Close() })
	return entry
}

// replyOnEOF is a service that reads until EOF and then answers with the
// byte count it read.
func replyOnEOF(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				n, _ := io.Copy(io.Discard, c)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(n))
				c.Write(b[:])
			}()
		}
	}()
	return ln.Addr().String()
}

// sendAndAwaitReply sends n bytes, half-closes, and waits up to d for the
// service's reply and EOF. It returns the count the service reported.
func sendAndAwaitReply(t *testing.T, addr string, n int, d time.Duration) (uint64, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(d))
	if _, err := c.Write(corpus.Generate(corpus.Moderate, n, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(c)
	if err != nil {
		return 0, err
	}
	if len(reply) != 8 {
		t.Fatalf("reply is %d bytes, want 8", len(reply))
	}
	return binary.LittleEndian.Uint64(reply), nil
}

func TestWrappedPairDeliversEOF(t *testing.T) {
	ws := &wireStats{}
	entry := startPair(t, replyOnEOF(t), wrapWire(nil, ws))
	const n = 3 << 20
	got, err := sendAndAwaitReply(t, entry.Addr().String(), n, 10*time.Second)
	if err != nil {
		t.Fatalf("no reply through the wrapped pair: %v", err)
	}
	if got != n {
		t.Fatalf("service read %d bytes, want %d", got, n)
	}
	if ws.vectored.Load() == 0 {
		t.Fatal("no wire write took the vectored path through the wrapper")
	}
}

// hidingConn wraps a conn without forwarding CloseWrite/CloseRead.
type hidingConn struct{ net.Conn }

func TestWrapperWithoutHalfCloseHangs(t *testing.T) {
	entry := startPair(t, replyOnEOF(t), func(c net.Conn) net.Conn { return hidingConn{c} })
	_, err := sendAndAwaitReply(t, entry.Addr().String(), 1<<20, time.Second)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("got %v, want a timeout: the service should never see EOF", err)
	}
}

func TestCorruptedBulkByteIsAFailedOperation(t *testing.T) {
	pl := newPools(5, chunkSize, 4)
	log := &chunkLog{}
	var stream bytes.Buffer
	for i, kind := range []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low, corpus.High} {
		log.add(kind, time.Now())
		stream.Write(pl.chunk(kind, i))
	}
	stream.Bytes()[2*chunkSize+777] ^= 0x20
	p := newPass()
	res := verifySink(&stream, pl, log, time.Now(), time.Hour, nil, p)
	if res.chunks != 4 || res.err != nil {
		t.Fatalf("read %d chunks, err %v; want 4, nil", res.chunks, res.err)
	}
	if p.failed != 1 || res.goodBytes != 3*chunkSize {
		t.Fatalf("failed %d, good bytes %d; want 1 failure and 3 good chunks", p.failed, res.goodBytes)
	}
}

func TestCorruptedEchoByteIsAFailedOperation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var echoed atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				msg := make([]byte, rpcHeader+rpcMaxSize)
				for {
					if _, err := io.ReadFull(c, msg[:rpcHeader]); err != nil {
						return
					}
					n := int(binary.LittleEndian.Uint32(msg))
					if _, err := io.ReadFull(c, msg[rpcHeader:rpcHeader+n]); err != nil {
						return
					}
					if echoed.Add(1) == 3 {
						msg[rpcHeader+n/2] ^= 1
					}
					if _, err := c.Write(msg[:rpcHeader+n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	c := &rpcClient{addr: ln.Addr().String(), rng: rand.New(rand.NewPCG(1, 2)), pools: rpcPools(1), stamps: &stamps{base: time.Now()}, nextID: new(atomic.Uint32), verified: new(atomic.Int64)}
	if c.conn, err = net.Dial("tcp", c.addr); err != nil {
		t.Fatal(err)
	}
	p := newPass()
	st := c.run(time.Now(), 300*time.Millisecond, p)
	if p.failed != 1 {
		t.Fatalf("failed %d of %d requests, want exactly the corrupted one", p.failed, p.attempted)
	}
	if len(st.latencies) < 10 || st.dials < 1 {
		t.Fatalf("%d verified requests, %d re-dials: the client should re-dial and carry on", len(st.latencies), st.dials)
	}
}

// saturate writes 64 KiB blocks through w for d and returns the achieved
// rate in bytes per second.
func saturate(w func([]byte), d time.Duration) float64 {
	buf := make([]byte, 64<<10)
	start := time.Now()
	var n int
	for time.Since(start) < d {
		w(buf)
		n += len(buf)
	}
	return float64(n) / time.Since(start).Seconds()
}

func TestPacerHoldsRateDespiteSleepFloor(t *testing.T) {
	const (
		rate = 1000e6
		d    = time.Second
	)
	pc := newPacer(rate, paceCredit)
	got := saturate(func(b []byte) { pc.wait(len(b)) }, d)
	// The first writes may spend the credit as a burst.
	burst := paceCredit.Seconds() / d.Seconds()
	if e := got/rate - 1; e < -rateErrorTolerance || e > burst+rateErrorTolerance {
		t.Fatalf("pacer delivered %.1f MB/s at a nominal %.0f (error %.3f)", got/1e6, rate/1e6, e)
	}
	lost, occ := pc.counters()
	if e := lost.Seconds() / (lost + occ).Seconds(); e > rateErrorTolerance {
		t.Fatalf("pacer reports rate error %.3f", e)
	}
	// For comparison only: ratelimit.Writer zeroes its bucket after every
	// sleep, so on a coarse timer it falls short of the same nominal rate.
	rl, err := ratelimit.NewWriter(io.Discard, rate, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pacer %.0f MB/s, ratelimit.Writer %.0f MB/s, nominal %.0f MB/s",
		got/1e6, saturate(func(b []byte) { rl.Write(b) }, d)/1e6, rate/1e6)
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s/%v, benchmark %s/%s/%s/%v", i, m.Name, m.Unit, m.Better, m.Bound, d.name, d.unit, d.better, d.bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if d := layerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and requires zero failed operations and a positive value for every
// end-to-end metric. The one failure it tolerates is wan-bulk's
// rate-error check: a one-second run has 83 ms phases, where a single
// scheduling stall past the pacer's credit (or the race detector's
// slowdown) exceeds the 2% tolerance. TestPacerHoldsRateDespiteSleepFloor
// covers the pacer, and every full-length run enforces the check.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			if name == "fleet-sim" && raceEnabled {
				// One scenario run takes minutes under the race detector,
				// past the pass deadline; the benchmark's fleet-sim code
				// runs on a single goroutine.
				t.Skip("too slow under the race detector")
			}
			o := options{workload: name, seed: 7, seconds: time.Second}
			for _, traced := range []bool{false, true} {
				p, err := runPass(workloads[name], o, traced)
				if err != nil {
					t.Fatal(err)
				}
				failed := p.failed
				for _, c := range p.causes {
					if strings.HasPrefix(c, "wire.rate_error") {
						failed--
					}
				}
				if failed != 0 || p.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, p.failed, p.attempted, p.causes)
				}
				if traced {
					continue
				}
				for _, d := range e2eMetrics {
					if !(p.metrics[d.name] > 0) {
						t.Errorf("%s = %v, want > 0", d.name, p.metrics[d.name])
					}
				}
			}
		})
	}
}
