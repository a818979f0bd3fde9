package stream

import (
	"adaptio/internal/core"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"adaptio/internal/corpus"
	"adaptio/internal/faultio"
)

// buildWire produces a wire stream of several frames and returns it along
// with the original payload and the per-frame boundaries.
func buildWire(t *testing.T, blocks int) (wire, payload []byte, bounds []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterConfig{Policy: core.Static(LevelLight), BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	payload = corpus.Generate(corpus.Moderate, blocks*1024, 42)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wire = buf.Bytes()
	for off := 0; off < len(wire); {
		compLen := int(binary.LittleEndian.Uint32(wire[off+8:]))
		bounds = append(bounds, off)
		off += headerSize + compLen
	}
	return wire, payload, bounds
}

// TestReaderFrameErrorLocatesCorruption: a flipped payload bit in frame k
// must surface as a sticky *FrameError naming frame k and its wire offset,
// wrapping ErrBadFrame, after delivering frames 0..k-1 intact.
func TestReaderFrameErrorLocatesCorruption(t *testing.T) {
	wire, payload, bounds := buildWire(t, 4)
	if len(bounds) < 3 {
		t.Fatalf("want >= 3 frames, got %d", len(bounds))
	}
	const badFrame = 2
	mut := append([]byte(nil), wire...)
	mut[bounds[badFrame]+headerSize+3] ^= 0x10 // payload corruption -> CRC or decode failure

	r, err := NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err == nil {
		t.Fatal("corrupted stream read succeeded")
	}
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FrameError", err)
	}
	if fe.Frame != badFrame || fe.Offset != int64(bounds[badFrame]) {
		t.Fatalf("error locates frame %d at %d, want frame %d at %d", fe.Frame, fe.Offset, badFrame, bounds[badFrame])
	}
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("error %v does not wrap ErrBadFrame", err)
	}
	if want := payload[:badFrame*1024]; !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes before failure, want the %d intact ones", len(got), len(want))
	}
	// The error is sticky.
	if _, err2 := r.Read(make([]byte, 1)); !errors.Is(err2, ErrBadFrame) {
		t.Fatalf("second read returned %v, want sticky frame error", err2)
	}
}

// TestParallelReaderFrameErrorLocatesCorruption: same policy on the
// parallel read path.
func TestParallelReaderFrameErrorLocatesCorruption(t *testing.T) {
	wire, _, bounds := buildWire(t, 4)
	const badFrame = 1
	mut := append([]byte(nil), wire...)
	mut[bounds[badFrame]+headerSize+3] ^= 0x10

	r, err := NewParallelReader(bytes.NewReader(mut), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = io.ReadAll(r)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FrameError", err)
	}
	if fe.Frame != badFrame || fe.Offset != int64(bounds[badFrame]) {
		t.Fatalf("error locates frame %d at %d, want frame %d at %d", fe.Frame, fe.Offset, badFrame, bounds[badFrame])
	}
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("error %v does not wrap ErrBadFrame", err)
	}
}

// TestReaderTruncationReportsOffset: a stream cut mid-frame reports the
// offset of the frame it died inside.
func TestReaderTruncationReportsOffset(t *testing.T) {
	wire, _, bounds := buildWire(t, 3)
	cut := bounds[2] + headerSize + 1 // inside frame 2's payload
	r, err := NewReader(bytes.NewReader(wire[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(r)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Frame != 2 || fe.Offset != int64(bounds[2]) {
		t.Fatalf("truncation error %v, want *FrameError{Frame: 2, Offset: %d}", err, bounds[2])
	}
}

// TestWriterToleratesShortWriteTransport: a transport that reports short
// counts with nil errors (POSIX write(2) semantics, injected by faultio)
// must not corrupt the stream — writeFull resends the tail.
func TestWriterToleratesShortWriteTransport(t *testing.T) {
	payload := corpus.Generate(corpus.High, 256<<10, 5)
	var wire bytes.Buffer
	fw := faultio.NewWriter(&wire, faultio.Config{Seed: 77, PartialWrite: 0.8})
	w, err := NewWriter(fw, WriterConfig{Policy: core.Static(LevelLight), BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("short-write transport corrupted the stream")
	}
}
