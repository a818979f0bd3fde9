package tunnel_test

import (
	"context"
	"io"
	"net"
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/tunnel"
)

// BenchmarkAllocTunnelRoundTrip measures the per-connection cost of the
// tunnel data plane: dial through the entry proxy, send 128 KB, read the
// echo back, close. Every op pays for two relays (four adaptive streams and
// their buffers), which is exactly what the block pool amortizes under
// connection churn. Baseline in BENCH_alloc.json; run via make bench-alloc.
func BenchmarkAllocTunnelRoundTrip(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Plain echo server behind the exit.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()

	cfg := tunnel.Config{Policy: tunnel.StaticPolicy(1)}
	exit, err := tunnel.ListenExit(ctx, "127.0.0.1:0", ln.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer exit.Close()
	entry, err := tunnel.ListenEntry(ctx, "127.0.0.1:0", exit.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer entry.Close()

	payload := corpus.Generate(corpus.Moderate, 128<<10, 11)
	echo := make([]byte, len(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", entry.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		if _, err := io.ReadFull(conn, echo); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}
