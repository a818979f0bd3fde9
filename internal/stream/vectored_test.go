package stream

import (
	"adaptio/internal/core"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"

	"adaptio/internal/compress"
	"adaptio/internal/compress/probe"
	"adaptio/internal/corpus"
)

// incompressible returns n bytes of uniform pseudo-random data — even
// corpus.Low shrinks by a few percent under lzfast, but uniform noise
// cannot, which is what forces the stored-raw (vectored) frame path.
func incompressible(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// shortWriter accepts at most chunk bytes per Write with a nil error — the
// POSIX-style transport writeFull exists for. It records every Write size
// so tests can prove the fallback path ran.
type shortWriter struct {
	buf    bytes.Buffer
	chunk  int
	writes []int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	n := len(p)
	if n > w.chunk {
		n = w.chunk
	}
	w.writes = append(w.writes, n)
	return w.buf.Write(p[:n])
}

// vecRecorder implements VectoredWriter and records the piece lengths.
type vecRecorder struct {
	buf  bytes.Buffer
	hdrs []int
}

func (w *vecRecorder) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *vecRecorder) WriteVectored(hdr, payload []byte) error {
	w.hdrs = append(w.hdrs, len(hdr))
	w.buf.Write(hdr)
	w.buf.Write(payload)
	return nil
}

func TestWriteVectoredFallbackPreservesShortWrites(t *testing.T) {
	hdr := []byte("0123456789abcdef")
	payload := bytes.Repeat([]byte("x"), 1000)
	w := &shortWriter{chunk: 7}
	if err := WriteVectored(w, hdr, payload); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), hdr...), payload...)
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatal("fallback path lost or reordered bytes across short writes")
	}
	if len(w.writes) < len(want)/7 {
		t.Fatalf("short writer saw %d writes, expected ~%d", len(w.writes), len(want)/7)
	}
}

func TestWriteVectoredDispatchesToVectoredWriter(t *testing.T) {
	w := &vecRecorder{}
	if err := WriteVectored(w, []byte("hh"), []byte("pppp")); err != nil {
		t.Fatal(err)
	}
	if len(w.hdrs) != 1 || w.hdrs[0] != 2 {
		t.Fatalf("VectoredWriter not used: %v", w.hdrs)
	}
	if w.buf.String() != "hhpppp" {
		t.Fatalf("wrote %q", w.buf.String())
	}
}

func TestWriteVectoredTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		data, _ := io.ReadAll(c)
		got <- data
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte("header--16bytes!")
	payload := bytes.Repeat([]byte("y"), 128<<10)
	if err := WriteVectored(conn.(*net.TCPConn), hdr, payload); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	want := append(append([]byte(nil), hdr...), payload...)
	if !bytes.Equal(<-got, want) {
		t.Fatal("TCP vectored write corrupted the stream")
	}
}

// TestEncodeFramePiecesRawAliasesBlock pins the zero-copy contract: a
// stored-raw frame's tail must alias the caller's block, not a copy.
func TestEncodeFramePiecesRawAliasesBlock(t *testing.T) {
	ladder := DefaultLadder()
	block := incompressible(4096, 1) // raw fallback
	scratch := make([]byte, 0, maxFrameSize(len(block)))

	head, tail, codecID, skipped := encodeFramePieces(scratch, ladder, LevelLight, block, probe.Default())
	if codecID != compress.IDNone {
		t.Fatalf("incompressible block not stored raw: codec %d", codecID)
	}
	if !skipped {
		t.Fatal("uniform random block not skipped by the entropy probe")
	}
	if len(head) != headerSize {
		t.Fatalf("raw head is %d bytes, want bare header", len(head))
	}
	if len(tail) != len(block) || &tail[0] != &block[0] {
		t.Fatal("raw tail must alias the block (zero copy)")
	}
	h, err := parseHeader(head)
	if err != nil {
		t.Fatal(err)
	}
	if h.codecID != compress.IDNone || h.rawLen != len(block) || h.compLen != len(block) {
		t.Fatalf("raw header wrong: %+v", h)
	}

	// Probe disabled: the codec runs, fails to shrink, and the standard
	// stored-raw fallback produces the identical two-piece frame.
	head2, tail2, codecID, skipped := encodeFramePieces(scratch, ladder, LevelLight, block, probe.Disabled())
	if skipped {
		t.Fatal("disabled probe reported a skip")
	}
	if codecID != compress.IDNone || !bytes.Equal(head2, head) || len(tail2) != len(block) || &tail2[0] != &block[0] {
		t.Fatal("probe skip and codec fallback disagree on the stored-raw frame")
	}

	// Identity level: Compress must not run at all; same two-piece shape,
	// and never counted as a probe skip.
	head, tail, codecID, skipped = encodeFramePieces(scratch, ladder, LevelNo, block, probe.Default())
	if codecID != compress.IDNone || len(head) != headerSize || tail == nil || skipped {
		t.Fatalf("identity level: head %d bytes, tail %v, codec %d, skipped %v", len(head), tail != nil, codecID, skipped)
	}

	// Compressible block: one contiguous piece, no tail.
	comp := corpus.Generate(corpus.High, 4096, 1)
	head, tail, codecID, skipped = encodeFramePieces(scratch, ladder, LevelLight, comp, probe.Default())
	if tail != nil || codecID == compress.IDNone || skipped {
		t.Fatalf("compressible block should be a single piece, tail %v codec %d skipped %v", tail != nil, codecID, skipped)
	}
	if len(head) >= headerSize+len(comp) {
		t.Fatalf("compressed frame did not shrink: %d bytes", len(head))
	}
}

// TestWriterVectoredFramesDecode round-trips a writer over destinations
// that exercise each WriteVectored dispatch arm and checks the reader
// accepts the wire bytes and that all arms produce identical streams.
func TestWriterVectoredFramesDecode(t *testing.T) {
	app := incompressible(300<<10, 4) // raw-fallback frames throughout
	encode := func(dst io.Writer) error {
		w, err := NewWriter(dst, WriterConfig{Policy: core.Static(LevelLight)})
		if err != nil {
			return err
		}
		if _, err := w.Write(app); err != nil {
			return err
		}
		return w.Close()
	}

	var plain bytes.Buffer
	if err := encode(&plain); err != nil {
		t.Fatal(err)
	}
	short := &shortWriter{chunk: 1000}
	if err := encode(short); err != nil {
		t.Fatal(err)
	}
	vec := &vecRecorder{}
	if err := encode(vec); err != nil {
		t.Fatal(err)
	}
	if len(vec.hdrs) == 0 {
		t.Fatal("VectoredWriter destination never saw a vectored frame")
	}
	if !bytes.Equal(plain.Bytes(), short.buf.Bytes()) || !bytes.Equal(plain.Bytes(), vec.buf.Bytes()) {
		t.Fatal("wire bytes differ across WriteVectored dispatch arms")
	}

	r, err := NewReader(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, app) {
		t.Fatal("vectored frames do not decode back to the application bytes")
	}
}

// errAfterWriter fails the Nth write, covering writeFrame's error path for
// vectored (two-piece) frames.
type errAfterWriter struct {
	n    int
	seen int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen > w.n {
		return 0, errors.New("boom")
	}
	return len(p), nil
}

func TestWriteFrameVectoredErrorPropagates(t *testing.T) {
	ladder := DefaultLadder()
	block := incompressible(4096, 2)
	scratch := make([]byte, 0, maxFrameSize(len(block)))
	// First write (header) succeeds, second (payload) fails.
	_, _, _, _, err := writeFrame(&errAfterWriter{n: 1}, ladder, LevelLight, block, scratch, probe.Default())
	if err == nil || err.Error() != "boom" {
		t.Fatalf("payload write error not propagated: %v", err)
	}
}
