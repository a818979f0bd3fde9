package tunnel_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
	"adaptio/internal/faultio/leakcheck"
	"adaptio/internal/tunnel"
)

// startRequestResponse runs a service that reads the full request, then
// responds with resp and half-closes. It returns the listen address and a
// function yielding the received request bytes once the conn is done.
func startRequestResponse(t *testing.T, resp []byte) (string, func() []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var got []byte
	done := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		defer conn.Close()
		req, _ := io.ReadAll(conn)
		mu.Lock()
		got = req
		mu.Unlock()
		close(done)
		conn.Write(resp)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	return ln.Addr().String(), func() []byte {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// waitStats polls the collector until want reports arrived (or fails), then
// waits a settle period and asserts no extras appear: each direction must
// report exactly once.
func waitStats(t *testing.T, c *statsCollector, want int) []tunnel.ConnStats {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if stats := c.snapshot(); len(stats) >= want {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d of %d direction stats arrived", len(c.snapshot()), want)
		case <-time.After(10 * time.Millisecond):
		}
	}
	time.Sleep(50 * time.Millisecond)
	stats := c.snapshot()
	if len(stats) != want {
		t.Fatalf("got %d direction reports, want exactly %d: %+v", len(stats), want, stats)
	}
	seen := map[string]int{}
	for _, s := range stats {
		seen[s.Direction]++
	}
	for dir, n := range seen {
		if n != 1 {
			t.Fatalf("direction %s reported %d times, want once", dir, n)
		}
	}
	return stats
}

// typedErr reports whether err wraps one of the typed sentinels the chaos
// contract allows: faultio's injected errors, the tunnel's own sentinels,
// stream framing errors, or a transport net.Error.
func typedErr(err error) bool {
	if errors.Is(err, faultio.ErrInjected) ||
		errors.Is(err, tunnel.ErrIdleTimeout) ||
		errors.Is(err, tunnel.ErrDial) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// TestConnStatsUnderPeerReset injects a mid-stream connection reset on the
// exit's wire while the response is in flight. The request direction must
// account exactly (AppBytes == bytes the service received), the reset
// direction must surface a typed error, and both directions must report
// exactly once via OnDone.
func TestConnStatsUnderPeerReset(t *testing.T) {
	leakcheck.Check(t)
	request := corpus.Generate(corpus.Moderate, 1024, 3)
	response := corpus.Generate(corpus.Low, 1<<20, 4) // barely compressible: wire ~ app bytes

	target, receivedRequest := startRequestResponse(t, response)
	collector := &statsCollector{}
	cfgExit := tunnel.Config{
		Policy: tunnel.StaticPolicy(1),
		OnDone: collector.add,
		Logf:   t.Logf,
		// Reset the exit's wire conn after ~100 KB written: the tiny
		// request never trips it, the 1 MB response does.
		WrapWire: func(c net.Conn) net.Conn {
			return faultio.WrapConn(c, faultio.Config{Seed: 21, ResetAfter: 100 << 10})
		},
	}
	cfgEntry := tunnel.Config{
		Policy: tunnel.StaticPolicy(1),
		OnDone: collector.add,
		Logf:   t.Logf,
	}

	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", target, cfgExit)
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfgEntry)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(request); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	echoed, readErr := io.ReadAll(conn)

	// The reset must not let the full response through, and whatever did
	// arrive must be an intact prefix (CRC rejects damaged frames).
	if readErr == nil && len(echoed) == len(response) {
		t.Fatal("reset at 100 KB delivered the full 1 MB response")
	}
	if !bytes.Equal(echoed, response[:len(echoed)]) {
		t.Fatalf("client received %d bytes that are not a prefix of the response", len(echoed))
	}

	if got := receivedRequest(); !bytes.Equal(got, request) {
		t.Fatalf("service received %d bytes, want the intact %d-byte request", len(got), len(request))
	}

	stats := waitStats(t, collector, 2)
	for _, s := range stats {
		switch s.Direction {
		case "entry->exit":
			// Clean direction: accounting must be exact.
			if s.Err != nil {
				t.Errorf("entry->exit err = %v, want nil", s.Err)
			}
			if s.Stats.AppBytes != int64(len(request)) {
				t.Errorf("entry->exit AppBytes = %d, want %d", s.Stats.AppBytes, len(request))
			}
		case "exit->entry":
			// Reset direction: typed error, accounting bounded by what
			// the service handed over and covering what the client got.
			if s.Err == nil {
				t.Error("exit->entry completed cleanly through a reset")
			} else if !typedErr(s.Err) {
				t.Errorf("exit->entry err %v does not wrap a typed sentinel", s.Err)
			}
			if s.Stats.AppBytes > int64(len(response)) {
				t.Errorf("exit->entry AppBytes = %d exceeds the %d-byte response", s.Stats.AppBytes, len(response))
			}
			if s.Stats.AppBytes < int64(len(echoed)) {
				t.Errorf("exit->entry AppBytes = %d below the %d delivered bytes", s.Stats.AppBytes, len(echoed))
			}
		default:
			t.Errorf("unexpected direction %q", s.Direction)
		}
	}
}

// TestIdleTimeoutTearsDownStalledWire stalls the wire mid-response: the
// relay's idle deadline must detect it, fail the direction with an error
// wrapping ErrIdleTimeout, and release the client within a bounded time.
func TestIdleTimeoutTearsDownStalledWire(t *testing.T) {
	leakcheck.Check(t)
	response := corpus.Generate(corpus.Low, 1<<20, 9)
	target, _ := startRequestResponse(t, response)
	collector := &statsCollector{}
	cfgExit := tunnel.Config{
		Policy:      tunnel.StaticPolicy(1),
		OnDone:      collector.add,
		Logf:        t.Logf,
		IdleTimeout: 200 * time.Millisecond,
		WrapWire: func(c net.Conn) net.Conn {
			return faultio.WrapConn(c, faultio.Config{Seed: 5, StallAfter: 64 << 10})
		},
	}
	cfgEntry := tunnel.Config{Policy: tunnel.StaticPolicy(1), OnDone: collector.add, Logf: t.Logf, IdleTimeout: time.Second}

	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", target, cfgExit)
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfgEntry)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("request"))
	conn.(*net.TCPConn).CloseWrite()

	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	_, readErr := io.ReadAll(conn)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stalled transfer took %v to fail, want bounded teardown", elapsed)
	}
	if readErr == nil {
		// EOF is fine: the tunnel tore the conn down; the client just
		// sees a short response.
		t.Log("client saw clean EOF after stall teardown")
	}

	stats := waitStats(t, collector, 2)
	foundTimeout := false
	for _, s := range stats {
		if s.Err != nil && errors.Is(s.Err, tunnel.ErrIdleTimeout) {
			foundTimeout = true
		}
	}
	if !foundTimeout {
		t.Errorf("no direction reported ErrIdleTimeout; stats: %+v", stats)
	}
}

// TestCorruptWireNeverDeliversDamage flips bits on the entry's wire. The
// CRC layer must reject every damaged frame: whatever reaches the service
// must be an intact prefix of the request.
func TestCorruptWireNeverDeliversDamage(t *testing.T) {
	leakcheck.Check(t)
	request := corpus.Generate(corpus.Moderate, 512<<10, 8)
	target, receivedRequest := startRequestResponse(t, []byte("ok"))
	collector := &statsCollector{}
	cfgEntry := tunnel.Config{
		Policy: tunnel.StaticPolicy(1),
		OnDone: collector.add,
		Logf:   t.Logf,
		WrapWire: func(c net.Conn) net.Conn {
			return faultio.WrapConn(c, faultio.Config{Seed: 13, CorruptBit: 0.2})
		},
	}
	cfgExit := tunnel.Config{Policy: tunnel.StaticPolicy(1), Logf: t.Logf}

	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", target, cfgExit)
	if err != nil {
		t.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfgEntry)
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	conn.Write(request)
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, conn) // wait for teardown or response

	got := receivedRequest()
	if !bytes.Equal(got, request[:len(got)]) {
		t.Fatalf("service received %d bytes that are not an intact prefix", len(got))
	}
	if len(got) == len(request) {
		t.Log("all frames survived corruption odds; prefix property still verified")
	}
}

// TestShutdownGraceBounds: Close with a grace period returns within a
// bounded time even when a client conn sits idle, force-closing it.
func TestShutdownGraceBounds(t *testing.T) {
	leakcheck.Check(t)
	target, _ := startRequestResponse(t, []byte("never sent"))
	cfg := tunnel.Config{ShutdownGrace: 100 * time.Millisecond, Logf: t.Logf}
	exit, err := tunnel.ListenExit(context.Background(), "127.0.0.1:0", target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := tunnel.ListenEntry(context.Background(), "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", entry.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("hello"))
	time.Sleep(50 * time.Millisecond) // let the relay establish

	for name, ep := range map[string]*tunnel.Endpoint{"entry": entry, "exit": exit} {
		start := time.Now()
		if err := ep.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s close took %v, want bounded by grace + teardown", name, elapsed)
		}
	}
}
