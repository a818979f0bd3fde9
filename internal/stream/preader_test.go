package stream

import (
	"adaptio/internal/core"
	"bytes"
	"errors"
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/corpus"
	"adaptio/internal/faultio/leakcheck"
)

func buildStream(t *testing.T, kind corpus.Kind, size, level, blockSize int) ([]byte, []byte) {
	t.Helper()
	src := corpus.Generate(kind, size, 9)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Policy: core.Static(level), BlockSize: blockSize})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return src, wire.Bytes()
}

func TestParallelReaderRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	for _, workers := range []int{1, 2, 8} {
		for _, kind := range corpus.Kinds() {
			src, wire := buildStream(t, kind, 500<<10, LevelLight, 16<<10)
			r, err := NewParallelReader(bytes.NewReader(wire), workers)
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, kind, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("workers=%d %v: round trip mismatch", workers, kind)
			}
			raw, wireBytes, blocks := r.Counters()
			if raw != int64(len(src)) || wireBytes != int64(len(wire)) || blocks == 0 {
				t.Fatalf("counters raw=%d wire=%d blocks=%d", raw, wireBytes, blocks)
			}
			r.Close()
		}
	}
}

func TestParallelReaderMixedLevels(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	// A stream produced by the parallel writer probing across levels must
	// decode identically on the parallel reader.
	src := corpus.Generate(corpus.High, 1<<20, 3)
	var wire bytes.Buffer
	w := mustWriter(t, &wire, WriterConfig{Parallelism: 4, BlockSize: 8 << 10})
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewParallelReader(&wire, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("mixed-level parallel round trip failed: %v", err)
	}
}

func TestParallelReaderDetectsCorruption(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	_, wire := buildStream(t, corpus.Moderate, 200<<10, LevelLight, 8<<10)
	bad := append([]byte(nil), wire...)
	bad[len(bad)/2] ^= 0xFF
	r, err := NewParallelReader(bytes.NewReader(bad), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestParallelReaderTruncation(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	_, wire := buildStream(t, corpus.Moderate, 100<<10, LevelLight, 8<<10)
	r, err := NewParallelReader(bytes.NewReader(wire[:len(wire)-3]), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); err == nil || err == io.EOF {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestParallelReaderEarlyClose(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	_, wire := buildStream(t, corpus.Moderate, 400<<10, LevelLight, 8<<10)
	r, err := NewParallelReader(bytes.NewReader(wire), 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r.Close() // idempotent
}

func TestParallelReaderEmptyAndErrors(t *testing.T) {
	leakcheck.Check(t)
	blocktest.Track(t)
	if _, err := NewParallelReader(nil, 2); err == nil {
		t.Fatal("nil source accepted")
	}
	r, err := NewParallelReader(bytes.NewReader(nil), 0) // workers clamp to 1
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty stream: %d bytes, %v", len(out), err)
	}
	// Reads after EOF keep returning EOF.
	if _, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("post-EOF read: %v", err)
	}
}
