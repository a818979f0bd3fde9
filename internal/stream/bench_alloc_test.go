package stream_test

import (
	"adaptio/internal/core"
	"bytes"
	"io"
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// Allocation benchmarks for the data plane (see docs/performance.md and the
// committed baseline in BENCH_alloc.json). Run with:
//
//	make bench-alloc
//
// The *Steady benchmarks measure the per-block cost of long-lived streams —
// the paper's sustained-transfer scenario — while the *Churn benchmarks
// measure stream setup+teardown, the connection-per-request scenario the
// tunnel and Nephele channels see under heavy traffic.

// loopSource replays the same encoded wire bytes forever, allocation-free,
// so a single long-lived Reader can decode b.N frames.
type loopSource struct {
	data []byte
	off  int
}

func (l *loopSource) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// benchPipe is a minimal in-memory pipe: Write appends, Read consumes, and
// the buffer resets once drained. After one warm-up op its backing array is
// fully grown, so steady-state ops do not allocate in the transport.
type benchPipe struct {
	buf []byte
	off int
}

func (p *benchPipe) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	return len(b), nil
}

func (p *benchPipe) Read(b []byte) (int, error) {
	if p.off == len(p.buf) {
		return 0, io.EOF
	}
	n := copy(b, p.buf[p.off:])
	p.off += n
	if p.off == len(p.buf) {
		p.buf = p.buf[:0]
		p.off = 0
	}
	return n, nil
}

func benchBlock(tb testing.TB, n int) []byte {
	tb.Helper()
	return corpus.Generate(corpus.Moderate, n, 7)
}

func staticCfg(level, parallelism int) stream.WriterConfig {
	return stream.WriterConfig{Policy: core.Static(level), Parallelism: parallelism}
}

// encodeWire returns the wire form of data at the given static level.
func encodeWire(tb testing.TB, data []byte, level int) []byte {
	tb.Helper()
	var wire bytes.Buffer
	w, err := stream.NewWriter(&wire, staticCfg(level, 0))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return wire.Bytes()
}

// BenchmarkAllocWriterSteady: one 128 KB block through a long-lived serial
// Writer per op.
func BenchmarkAllocWriterSteady(b *testing.B) {
	data := benchBlock(b, stream.DefaultBlockSize)
	w, err := stream.NewWriter(io.Discard, staticCfg(stream.LevelLight, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllocReaderSteady: one 128 KB frame through a long-lived serial
// Reader per op.
func BenchmarkAllocReaderSteady(b *testing.B) {
	data := benchBlock(b, stream.DefaultBlockSize)
	src := &loopSource{data: encodeWire(b, data, stream.LevelLight)}
	r, err := stream.NewReader(src)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := io.ReadFull(r, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRoundTripSerial: 128 KB written, framed, decoded and read
// back per op through a long-lived Writer/Reader pair — the path the
// AllocsPerRun gate in alloc_test.go locks down.
func BenchmarkAllocRoundTripSerial(b *testing.B) {
	data := benchBlock(b, stream.DefaultBlockSize)
	pipe := &benchPipe{}
	w, err := stream.NewWriter(pipe, staticCfg(stream.LevelLight, 0))
	if err != nil {
		b.Fatal(err)
	}
	r, err := stream.NewReader(pipe)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(data))
	roundTrip := func() {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(r, out); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip() // warm-up: grow the transport and scratch buffers
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllocWriterChurn: Writer setup, one block, teardown per op — the
// per-connection cost a tunnel or Nephele channel pays.
func BenchmarkAllocWriterChurn(b *testing.B) {
	data := benchBlock(b, stream.DefaultBlockSize)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := stream.NewWriter(io.Discard, staticCfg(stream.LevelLight, 0))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocPipelineWriter: one 128 KB block per op through a long-lived
// Writer with a 4-worker parallel compression pipeline.
func BenchmarkAllocPipelineWriter(b *testing.B) {
	data := benchBlock(b, stream.DefaultBlockSize)
	w, err := stream.NewWriter(io.Discard, staticCfg(stream.LevelLight, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllocParallelReader: one 128 KB frame per op through a long-lived
// 4-worker ParallelReader.
func BenchmarkAllocParallelReader(b *testing.B) {
	data := benchBlock(b, stream.DefaultBlockSize)
	src := &loopSource{data: encodeWire(b, data, stream.LevelLight)}
	r, err := stream.NewParallelReader(src, 4)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := io.ReadFull(r, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.Close()
}
