package stream_test

// Wire-determinism property: for a pinned compression level, the bytes a
// Writer puts on the wire are a pure function of the application bytes —
// independent of Parallelism (order-preserving pipeline vs serial encode
// path, which also differ in contiguous-vs-vectored framing) and of how the
// application chops its Write calls. The parallel reader relies on frames
// being self-describing, not on this property, but it pins down that the
// pipeline cannot reorder, duplicate or re-split blocks.

import (
	"adaptio/internal/core"
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// encodeChunked writes src through a Writer in random-sized chunks drawn
// from rng and returns the wire bytes.
func encodeChunked(t *testing.T, cfg stream.WriterConfig, src []byte, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeChunked(t, w, &buf, src, rng)
	return buf.Bytes()
}

// encodeChunkedParallel is encodeChunked through the public ParallelWriter.
func encodeChunkedParallel(t *testing.T, cfg stream.WriterConfig, workers int, src []byte, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewParallelWriter(&buf, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	writeChunked(t, w, &buf, src, rng)
	return buf.Bytes()
}

type chunkWriter interface {
	Write([]byte) (int, error)
	Close() error
}

func writeChunked(t *testing.T, w chunkWriter, buf *bytes.Buffer, src []byte, rng *rand.Rand) {
	t.Helper()
	for off := 0; off < len(src); {
		n := 1 + rng.Intn(96<<10)
		if off+n > len(src) {
			n = len(src) - off
		}
		if _, err := w.Write(src[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWireDeterminismSerialVsParallel(t *testing.T) {
	// Interleave all compressibility classes so the static levels see
	// compressible and incompressible blocks (i.e. both contiguous and
	// stored-raw frames).
	var src []byte
	for _, kind := range corpus.Kinds() {
		src = append(src, corpus.Generate(kind, 700<<10, 42)...)
	}
	for level := stream.LevelNo; level <= stream.LevelHeavy; level++ {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			serialCfg := stream.WriterConfig{Policy: core.Static(level)}
			rng := rand.New(rand.NewSource(int64(level)))
			want := encodeChunked(t, serialCfg, src, rng)

			// The same input through the parallel pipeline (both the
			// Parallelism knob and the public ParallelWriter), and again
			// serially with a different chunking, must produce the
			// identical wire stream.
			for trial := 0; trial < 3; trial++ {
				parCfg := serialCfg
				parCfg.Parallelism = 2 + trial
				got := encodeChunked(t, parCfg, src, rng)
				if !bytes.Equal(want, got) {
					t.Fatalf("parallelism %d: wire bytes differ from serial writer (%d vs %d bytes)",
						parCfg.Parallelism, len(got), len(want))
				}
				pw := encodeChunkedParallel(t, serialCfg, 2+trial, src, rng)
				if !bytes.Equal(want, pw) {
					t.Fatalf("ParallelWriter(%d workers): wire bytes differ from serial writer (%d vs %d bytes)",
						2+trial, len(pw), len(want))
				}
				reChunked := encodeChunked(t, serialCfg, src, rng)
				if !bytes.Equal(want, reChunked) {
					t.Fatal("serial wire bytes depend on application chunk sizes")
				}
			}

			// And the stream must still decode to the application bytes.
			r, err := stream.NewReader(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := out.ReadFrom(r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), src) {
				t.Fatal("deterministic wire stream does not decode to the input")
			}
		})
	}
}
