package stream

import (
	"adaptio/internal/core"
	"bytes"
	"errors"
	"io"
	"testing"

	"adaptio/internal/corpus"
)

// corruptSeedWire builds the valid wire image the corrupt-stream fuzzer
// mutates: three blocks across two codec levels.
func corruptSeedWire(tb testing.TB) []byte {
	tb.Helper()
	var wire bytes.Buffer
	w, err := NewWriter(&wire, WriterConfig{Policy: core.Static(LevelLight), BlockSize: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(corpus.Generate(corpus.Moderate, 2500, 9)); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return wire.Bytes()
}

// FuzzReaderCorruptStream hammers both frame readers with corrupt wire
// bytes and checks the documented corrupt-frame policy differentially:
//
//   - neither Reader nor ParallelReader panics or leaks goroutines;
//   - any failure wraps ErrBadFrame (io.ErrUnexpectedEOF marks honest
//     truncation of the final frame, which the format cannot distinguish
//     from a short wire);
//   - both readers deliver the identical byte prefix and agree on whether
//     the stream is acceptable — the parallel path must never deliver
//     bytes the sequential path would reject, or vice versa.
//
// Seeds come from the chaos suite's failure modes: truncation, bit flips
// in header and payload, and garbage splices (testdata/fuzz).
func FuzzReaderCorruptStream(f *testing.F) {
	wire := corruptSeedWire(f)
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add([]byte{})
	flipped := append([]byte(nil), wire...)
	flipped[12] ^= 0x40 // CRC byte of the first frame
	f.Add(flipped)
	// A stream that ends mid-header: valid blocks followed by the first 7
	// bytes of another frame header (headerSize is 16). Exercises the
	// header-read truncation path rather than payload truncation.
	midHeader := append(append([]byte(nil), wire...), wire[:7]...)
	f.Add(midHeader)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		seqOut, seqErr := io.ReadAll(r)

		pr, err := NewParallelReader(bytes.NewReader(data), 3)
		if err != nil {
			t.Fatal(err)
		}
		parOut, parErr := io.ReadAll(pr)
		pr.Close()

		for name, err := range map[string]error{"reader": seqErr, "parallel": parErr} {
			if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
				continue
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s failed without wrapping ErrBadFrame: %v", name, err)
			}
		}
		if !bytes.Equal(seqOut, parOut) {
			t.Fatalf("readers disagree on delivered bytes: sequential %d, parallel %d", len(seqOut), len(parOut))
		}
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("readers disagree on acceptability: sequential err=%v, parallel err=%v", seqErr, parErr)
		}
	})
}
