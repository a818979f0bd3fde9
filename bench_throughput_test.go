// Throughput benchmark suite: the MB/s counterpart of the allocation
// benchmarks in internal/*/bench_alloc_test.go. The paper trades compression
// speed against I/O bandwidth (Algorithm 1 selects a level by observed data
// rate), so the codecs and the frame path ARE the hot path of this system;
// this file freezes their throughput into a regression baseline.
//
// Every benchmark sets b.SetBytes with the raw (uncompressed) byte count, so
// `go test -bench '^BenchmarkThroughput'` reports application-level MB/s.
// The committed baseline lives in BENCH_throughput.json; compare with
// `make bench-throughput-compare` (cmd/benchdiff -mode throughput).
package adaptio_test

import (
	"adaptio/internal/core"
	"bytes"
	"context"
	"io"
	"net"
	"testing"

	"adaptio/internal/compress"
	"adaptio/internal/compress/lzfast"
	"adaptio/internal/compress/lzheavy"
	"adaptio/internal/corpus"
	"adaptio/internal/stream"
	"adaptio/internal/tunnel"
)

// throughputBlock is the per-op unit for the codec benchmarks: one default
// stream block.
const throughputBlock = 128 << 10

// benchCorpus returns the named benchmark input. "mixed" splices equal
// thirds of the three paper corpora into one block, so a decode pass crosses
// fax runs, prose, and entropy data (and therefore both the wild-copy fast
// path and the careful tail path) within a single op.
func benchCorpus(name string, n int) []byte {
	switch name {
	case "high":
		return corpus.Generate(corpus.High, n, 1)
	case "moderate":
		return corpus.Generate(corpus.Moderate, n, 1)
	case "low":
		return corpus.Generate(corpus.Low, n, 1)
	case "mixed":
		third := n / 3
		out := make([]byte, 0, n)
		out = append(out, corpus.Generate(corpus.High, third, 1)...)
		out = append(out, corpus.Generate(corpus.Moderate, third, 1)...)
		out = append(out, corpus.Generate(corpus.Low, n-2*third, 1)...)
		return out
	default:
		panic("unknown bench corpus " + name)
	}
}

var throughputCodecs = []struct {
	name  string
	codec compress.Codec
}{
	{"lzfast", lzfast.Fast{}},
	{"lzfast-hc", lzfast.HC{}},
	{"lzheavy", lzheavy.Codec{}},
}

var throughputKinds = []string{"high", "moderate", "low", "mixed"}

func BenchmarkThroughputCompress(b *testing.B) {
	for _, tc := range throughputCodecs {
		for _, kind := range throughputKinds {
			b.Run(tc.name+"/"+kind, func(b *testing.B) {
				src := benchCorpus(kind, throughputBlock)
				dst := make([]byte, 0, 2*len(src))
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = tc.codec.Compress(dst[:0], src)
				}
				b.ReportMetric(float64(len(dst))/float64(len(src)), "ratio")
			})
		}
	}
}

func BenchmarkThroughputDecompress(b *testing.B) {
	for _, tc := range throughputCodecs {
		for _, kind := range throughputKinds {
			b.Run(tc.name+"/"+kind, func(b *testing.B) {
				src := benchCorpus(kind, throughputBlock)
				comp := tc.codec.Compress(nil, src)
				dst := make([]byte, 0, len(src))
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := tc.codec.Decompress(dst[:0], comp, len(src))
					if err != nil {
						b.Fatal(err)
					}
					dst = out[:0]
				}
			})
		}
	}
}

// streamVolume is the per-op byte volume of the stream/tunnel benchmarks:
// 32 default blocks, enough that per-frame costs dominate setup.
const streamVolume = 32 * throughputBlock

// buildWire encodes streamVolume bytes of moderate corpus at the given
// static level and returns (application bytes, wire bytes).
func buildWire(b *testing.B, level int) (app, wire []byte) {
	b.Helper()
	app = benchCorpus("moderate", streamVolume)
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.WriterConfig{Policy: core.Static(level)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(app); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return app, buf.Bytes()
}

var throughputLevels = []struct {
	name  string
	level int
}{
	{"no", stream.LevelNo},
	{"light", stream.LevelLight},
	{"medium", stream.LevelMedium},
}

// BenchmarkThroughputStreamWriter measures the serial Writer end to end:
// application bytes in, frames to an in-memory sink.
func BenchmarkThroughputStreamWriter(b *testing.B) {
	for _, lv := range throughputLevels {
		b.Run(lv.name, func(b *testing.B) {
			app := benchCorpus("moderate", streamVolume)
			w, err := stream.NewWriter(io.Discard, stream.WriterConfig{Policy: core.Static(lv.level)})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(app)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Write(app); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThroughputStreamWriterParallel is the pipeline variant
// (Parallelism=4) of the light-level writer benchmark.
func BenchmarkThroughputStreamWriterParallel(b *testing.B) {
	app := benchCorpus("moderate", streamVolume)
	w, err := stream.NewWriter(io.Discard, stream.WriterConfig{
		Policy: core.Static(stream.LevelLight), Parallelism: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(app)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(app); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughputParallelWriter measures the public ParallelWriter —
// per-block parallel compression within a single stream — at 4 workers
// across the writer levels. Its wire output is byte-identical to the serial
// Writer at every level (pinned by TestWireDeterminismSerialVsParallel);
// only the scheduling differs, so this row isolates the pipeline's
// fan-out/recombine overhead from the codec cost.
func BenchmarkThroughputParallelWriter(b *testing.B) {
	for _, lv := range throughputLevels {
		b.Run(lv.name, func(b *testing.B) {
			app := benchCorpus("moderate", streamVolume)
			w, err := stream.NewParallelWriter(io.Discard, stream.WriterConfig{
				Policy: core.Static(lv.level),
			}, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(app)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Write(app); err != nil {
					b.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThroughputStreamReader measures the serial Reader end to end:
// wire frames in, application bytes to io.Discard (via the Reader's
// WriteTo, the relay path).
func BenchmarkThroughputStreamReader(b *testing.B) {
	for _, lv := range throughputLevels {
		b.Run(lv.name, func(b *testing.B) {
			app, wire := buildWire(b, lv.level)
			b.SetBytes(int64(len(app)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := stream.NewReader(bytes.NewReader(wire))
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, r)
				if err != nil {
					b.Fatal(err)
				}
				if n != int64(len(app)) {
					b.Fatalf("decoded %d bytes, want %d", n, len(app))
				}
			}
		})
	}
}

// BenchmarkThroughputStreamParallelReader is the 4-worker ParallelReader
// variant of the light-level reader benchmark.
func BenchmarkThroughputStreamParallelReader(b *testing.B) {
	app, wire := buildWire(b, stream.LevelLight)
	b.SetBytes(int64(len(app)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := stream.NewParallelReader(bytes.NewReader(wire), 4)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, r)
		if err != nil {
			b.Fatal(err)
		}
		if n != int64(len(app)) {
			b.Fatalf("decoded %d bytes, want %d", n, len(app))
		}
		r.Close()
	}
}

// benchTunnelRelay drives the full tunnel data plane over a real loopback:
// per op one connection writes 8 blocks through entry→exit to an echo server
// and reads them back, so every payload byte crosses both relays twice.
// SetBytes counts both directions.
func benchTunnelRelay(b *testing.B, cfg tunnel.Config) {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

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

	payload := benchCorpus("moderate", 8*throughputBlock)
	echo := make([]byte, len(payload))
	b.SetBytes(int64(2 * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := net.Dial("tcp", entry.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(conn, echo)
			done <- err
		}()
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// BenchmarkThroughputTunnelRelay is the historical gate benchmark: a LIGHT
// static tunnel pair, so every byte runs the codec both ways.
func BenchmarkThroughputTunnelRelay(b *testing.B) {
	benchTunnelRelay(b, tunnel.Config{Policy: tunnel.StaticPolicy(stream.LevelLight)})
}

// BenchmarkThroughputRelayNoLevel pins the framed zero-copy path: NO level
// means stored-raw vectored frames out of ReadDirect on the compress side
// and CRC-verified direct delivery on the decompress side — framing overhead
// without a single user-space buffer-to-buffer copy.
func BenchmarkThroughputRelayNoLevel(b *testing.B) {
	benchTunnelRelay(b, tunnel.Config{Policy: tunnel.StaticPolicy(stream.LevelNo)})
}

// BenchmarkThroughputRelayPassthrough pins the unframed path: both endpoints
// agree on Config.Passthrough, so on Linux the bytes move entirely in the
// kernel via splice(2) (portable pooled-buffer loop elsewhere).
func BenchmarkThroughputRelayPassthrough(b *testing.B) {
	benchTunnelRelay(b, tunnel.Config{Passthrough: true})
}
