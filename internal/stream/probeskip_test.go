package stream

import (
	"adaptio/internal/core"
	"bytes"
	"io"
	"testing"

	"adaptio/internal/block/blocktest"
	"adaptio/internal/compress/probe"
	"adaptio/internal/corpus"
	"adaptio/internal/obs"
)

// This file pins the stream-level entropy pre-probe property: a block the
// probe judges hopeless is framed bit-identically to a stored-raw block —
// the skip is invisible on the wire — while the ledger records the saved
// work (ProbeSkips) and, on the direct-ingest path, the bytes stay
// zero-copy (passthrough_bytes, not copied_bytes).

// encodeProbe pushes src through a writer built from cfg — via ReadFrom
// (direct ingest) or Write (staging) — and returns the wire bytes and the
// final stats.
func encodeProbe(t *testing.T, cfg WriterConfig, src []byte, direct bool) ([]byte, Stats) {
	t.Helper()
	var wire bytes.Buffer
	w := mustWriter(t, &wire, cfg)
	var err error
	if direct {
		_, err = w.ReadFrom(bytes.NewReader(src))
	} else {
		_, err = w.Write(src)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), w.Stats()
}

// TestProbeSkipWireIdenticalToStoredRaw: for incompressible input at a
// compressing level, the probe-skipped wire stream must be byte-identical
// to the same data framed at the identity level (pure stored-raw framing) —
// and to the same level with the probe disabled, where the codec runs and
// takes the stored-raw fallback itself. One property, all three encoders.
func TestProbeSkipWireIdenticalToStoredRaw(t *testing.T) {
	blocktest.Track(t)
	src := incompressible(300<<10, 17) // spans full and partial blocks
	for lvl := 1; lvl < len(DefaultLadder()); lvl++ {
		skipped, st := encodeProbe(t, WriterConfig{Policy: core.Static(lvl)}, src, true)
		storedRaw, _ := encodeProbe(t, WriterConfig{Policy: core.Static(LevelNo)}, src, true)
		if !bytes.Equal(skipped, storedRaw) {
			t.Fatalf("level %d: probe-skipped wire differs from stored-raw framing (%d vs %d bytes)",
				lvl, len(skipped), len(storedRaw))
		}
		pr := probe.Disabled()
		codecPath, stDis := encodeProbe(t, WriterConfig{Policy: core.Static(lvl), Probe: &pr}, src, true)
		if !bytes.Equal(skipped, codecPath) {
			t.Fatalf("level %d: probe skip changes the wire bytes vs the codec's own fallback", lvl)
		}
		if st.ProbeSkips != st.Blocks || st.RawFallbacks != st.Blocks {
			t.Fatalf("level %d: ProbeSkips=%d RawFallbacks=%d, want both %d", lvl, st.ProbeSkips, st.RawFallbacks, st.Blocks)
		}
		if stDis.ProbeSkips != 0 || stDis.RawFallbacks != stDis.Blocks {
			t.Fatalf("level %d disabled probe: ProbeSkips=%d RawFallbacks=%d/%d", lvl, stDis.ProbeSkips, stDis.RawFallbacks, stDis.Blocks)
		}
		// And the frames must still decode.
		out, err := io.ReadAll(mustReader(t, bytes.NewReader(skipped)))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("level %d: probe-skipped stream does not round-trip: %v", lvl, err)
		}
	}
}

// TestProbeSkipLedger: a skipped block's bytes never cross a user-space
// copy on the direct-ingest path (passthrough, not copied), and the skip is
// visible in both the Stats and the obs counters. Staged bytes (Write) keep
// their one staging copy but still avoid the codec copy. The parallel
// pipeline must account identically to the serial path.
func TestProbeSkipLedger(t *testing.T) {
	blocktest.Track(t)
	src := incompressible(256<<10, 23) // exactly two default blocks

	for _, tc := range []struct {
		name             string
		parallelism      int
		direct           bool
		copied, passthru int64
	}{
		{"serial-direct", 0, true, 0, int64(len(src))},
		{"serial-staged", 0, false, int64(len(src)), 0},
		{"pipeline-direct", 4, true, 0, int64(len(src))},
		{"pipeline-staged", 4, false, int64(len(src)), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			scope := reg.Scope("test").Scope("stream").Scope("writer")
			cfg := WriterConfig{Policy: core.Static(LevelLight), Parallelism: tc.parallelism, Obs: scope}
			_, st := encodeProbe(t, cfg, src, tc.direct)
			if st.Blocks != 2 || st.ProbeSkips != 2 {
				t.Fatalf("Blocks=%d ProbeSkips=%d, want 2/2", st.Blocks, st.ProbeSkips)
			}
			if st.CopiedBytes != tc.copied {
				t.Errorf("CopiedBytes = %d, want %d", st.CopiedBytes, tc.copied)
			}
			if st.PassthroughBytes != tc.passthru {
				t.Errorf("PassthroughBytes = %d, want %d", st.PassthroughBytes, tc.passthru)
			}
			if v := scope.Counter("probe_skips").Value(); v != 2 {
				t.Errorf("probe_skips counter = %d, want 2", v)
			}
			if v := scope.Counter("copied_bytes").Value(); v != tc.copied {
				t.Errorf("copied_bytes counter = %d, want %d", v, tc.copied)
			}
			if v := scope.Counter("passthrough_bytes").Value(); v != tc.passthru {
				t.Errorf("passthrough_bytes counter = %d, want %d", v, tc.passthru)
			}
		})
	}
}

// TestProbeKeepsCompressibleBlocks: the probe must never divert blocks the
// codecs can shrink — including the JPEG-like Low corpus, whose high
// sampled entropy is rescued by the match probe — so compression ratios are
// untouched on real workloads.
func TestProbeKeepsCompressibleBlocks(t *testing.T) {
	for _, kind := range corpus.Kinds() {
		src := corpus.Generate(kind, 256<<10, 7)
		wire, st := encodeProbe(t, WriterConfig{Policy: core.Static(LevelLight)}, src, true)
		if st.ProbeSkips != 0 {
			t.Errorf("%s: %d of %d blocks probe-skipped", kind, st.ProbeSkips, st.Blocks)
		}
		out, err := io.ReadAll(mustReader(t, bytes.NewReader(wire)))
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("%s: round trip failed: %v", kind, err)
		}
	}
}
