package stream

import (
	"adaptio/internal/core"
	"bytes"
	"io"
	"testing"

	"adaptio/internal/corpus"
)

// FuzzReader feeds arbitrary bytes to the frame reader: it must never panic
// and never allocate unboundedly, whatever arrives on the wire.
func FuzzReader(f *testing.F) {
	// Seed with a valid two-block stream and mutations thereof.
	var wire bytes.Buffer
	w, err := NewWriter(&wire, WriterConfig{Policy: core.Static(LevelLight), BlockSize: 1024})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Write(corpus.Generate(corpus.Moderate, 3000, 1)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(wire.Bytes())
	f.Add([]byte{})
	f.Add([]byte("AC\x01\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		// Read everything; any error is acceptable, panics are not.
		_, _ = io.Copy(io.Discard, r)
	})
}

// FuzzWriterChunking: arbitrary chunking of arbitrary data through the
// adaptive writer round trips exactly.
func FuzzWriterChunking(f *testing.F) {
	f.Add([]byte("some application data"), uint16(7))
	f.Add(corpus.Generate(corpus.High, 5000, 2), uint16(1024))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		n := int(chunk)%4096 + 1
		var wire bytes.Buffer
		w, err := NewWriter(&wire, WriterConfig{BlockSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += n {
			end := off + n
			if end > len(data) {
				end = len(data)
			}
			if _, err := w.Write(data[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&wire)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("round trip mismatch")
		}
	})
}
