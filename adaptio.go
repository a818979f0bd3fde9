// Package adaptio is the public API of this repository: adaptive online
// compression for streams whose I/O bandwidth is shared and unpredictable,
// as in IaaS clouds.
//
// It implements the system of "Evaluating Adaptive Compression to Mitigate
// the Effects of Shared I/O in Clouds" (Hovestadt, Kao, Kliem, Warneke —
// IEEE IPDPS 2011): a compression module that sits between the application
// and the I/O layer, cuts the outgoing stream into self-contained 128 KB
// blocks, and every t seconds picks a compression level from an ordered
// ladder (NO / LIGHT / MEDIUM / HEAVY) using only the observed application
// data rate — no OS metrics, no training phase. Decisions follow the
// paper's Algorithm 1: optimistic neighbour probes under exponential
// backoff, immediate revert on rate degradation.
//
// # Quick start
//
//	w, err := adaptio.NewWriter(conn, adaptio.WriterConfig{})
//	if err != nil { ... }
//	io.Copy(w, data) // application writes, levels adapt every 2 s
//	w.Close()
//
//	r, err := adaptio.NewReader(conn)    // receiving side
//	io.Copy(dst, r)                      // codec switches are transparent
//
// The receiver needs no configuration: every block header carries its codec,
// so the compression level can change mid-stream without coordination.
//
// # Structure
//
// The implementation lives in internal packages, re-exported here:
//
//   - internal/core — the rate-based decision model (Algorithm 1)
//   - internal/stream — block framing, adaptive Writer/Reader
//   - internal/compress — codec ladder: from-scratch LZ77 (lzfast, the
//     QuickLZ stand-in), LZ77+range-coder (lzheavy, the LZMA stand-in),
//     and a stdlib flate adapter
//   - internal/nephele — a miniature Nephele dataflow engine whose network
//     and file channels compress transparently
//   - internal/cloudsim, internal/experiments — the simulation substrate
//     and harness that regenerate the paper's evaluation (see DESIGN.md
//     and EXPERIMENTS.md)
//
// Corrupt or hostile input never panics or over-allocates: framing errors
// fail fast wrapping stream.ErrBadFrame, and the tunnel exposes retry,
// idle-timeout and graceful-shutdown knobs. The fault model and hardening
// guarantees are documented in docs/robustness.md and exercised by the
// internal/faultio chaos suite.
package adaptio

import (
	"io"

	"adaptio/internal/compress"
	"adaptio/internal/core"
	"adaptio/internal/stream"
)

// Writer is the adaptive compression writer; see stream.Writer.
type Writer = stream.Writer

// Reader is the decompressing reader; see stream.Reader.
type Reader = stream.Reader

// WriterConfig configures a Writer. The zero value is the paper's
// configuration: four-level default ladder, t = 2 s, 128 KB blocks,
// adaptive level selection by Algorithm 1 with α = 0.2.
type WriterConfig = stream.WriterConfig

// WindowStat describes one completed decision window.
type WindowStat = stream.WindowStat

// Stats aggregates writer activity.
type Stats = stream.Stats

// Codec is the block-codec interface; custom codecs can be registered with
// RegisterCodec and used in custom ladders.
type Codec = compress.Codec

// Ladder is an ordered set of compression levels.
type Ladder = compress.Ladder

// Level is one entry of a Ladder.
type Level = compress.Level

// Policy is the level-selection seam: the writer feeds it every completed
// Window and adopts the level it returns (WriterConfig.Policy).
type Policy = core.Policy

// Window is one completed decision window: the input of a Policy.
type Window = core.Window

// Static pins one level (the paper's static baselines): Static(LevelLight)
// is a Policy.
type Static = core.Static

// Decider is a Policy that explains itself: the registry policies NewPolicy
// builds, for callers who want the decision model without the stream layer.
type Decider = core.Decider

// AlgorithmOne is the paper-faithful Algorithm 1 policy.
type AlgorithmOne = core.AlgorithmOne

// DeciderConfig configures a policy built by NewPolicy.
type DeciderConfig = core.Config

// Paper defaults.
const (
	// DefaultAlpha is the rate tolerance band α = 0.2.
	DefaultAlpha = core.DefaultAlpha
	// DefaultBlockSize is the 128 KB block size.
	DefaultBlockSize = stream.DefaultBlockSize
)

// Ladder level indices of DefaultLadder, matching the paper's names.
const (
	LevelNo     = stream.LevelNo
	LevelLight  = stream.LevelLight
	LevelMedium = stream.LevelMedium
	LevelHeavy  = stream.LevelHeavy
)

// NewWriter creates an adaptive compression writer in front of dst.
func NewWriter(dst io.Writer, cfg WriterConfig) (*Writer, error) {
	return stream.NewWriter(dst, cfg)
}

// NewReader creates a decompressing reader over src.
func NewReader(src io.Reader) (*Reader, error) {
	return stream.NewReader(src)
}

// ParallelReader decompresses on a worker pool; see stream.ParallelReader.
type ParallelReader = stream.ParallelReader

// NewParallelReader creates a decompressing reader whose frames are decoded
// on a worker pool while the bytes are delivered strictly in order — the
// receive-side counterpart of WriterConfig.Parallelism. Close it when
// abandoning the stream before EOF.
func NewParallelReader(src io.Reader, workers int) (*ParallelReader, error) {
	return stream.NewParallelReader(src, workers)
}

// NewPolicy constructs a level-selection policy by registry name: "algone"
// (or empty) for the paper's Algorithm 1, "bandit" for the contextual-bandit
// probe gate, "ewma" for the trend-predictive variant. See docs/deciders.md.
func NewPolicy(name string, cfg DeciderConfig) (Decider, error) {
	return core.New(name, cfg)
}

// DefaultLadder returns the paper's four-level ladder: NO, LIGHT (fast
// LZ77), MEDIUM (LZ77 with deeper match search) and HEAVY (LZ77 + range
// coder).
func DefaultLadder() Ladder { return stream.DefaultLadder() }

// ExtendedLadder returns a six-level ladder that reuses algorithms at
// multiple parameter settings (two lzfast-hc depths, DEFLATE, the range
// coder) — the paper's "same compression algorithm at multiple levels but
// with different parameters" remark, ready to use.
func ExtendedLadder() Ladder { return stream.ExtendedLadder() }

// RegisterCodec makes a custom codec resolvable on the receive path. Codec
// IDs are wire identifiers; duplicate registrations panic.
func RegisterCodec(c Codec) { compress.Register(c) }
