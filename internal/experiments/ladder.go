package experiments

import (
	"fmt"

	"adaptio/internal/cloudsim"
	"adaptio/internal/compress"
	"adaptio/internal/core"
	"adaptio/internal/corpus"
	"adaptio/internal/stream"
)

// CalibrateLadder measures an arbitrary compression-level ladder on the
// corpus and returns the profile ladder for the simulator (the generalized
// form of Calibrate, which covers the default four levels).
func CalibrateLadder(ladder compress.Ladder, sampleBytes int) ([]CodecMeasurement, []cloudsim.CodecProfile, error) {
	if err := ladder.Validate(); err != nil {
		return nil, nil, err
	}
	if sampleBytes <= 0 {
		sampleBytes = 4 << 20
	}
	var ms []CodecMeasurement
	profiles := make([]cloudsim.CodecProfile, len(ladder))
	for li, lvl := range ladder {
		profiles[li] = cloudsim.CodecProfile{
			Name:       lvl.Name,
			CompMBps:   map[corpus.Kind]float64{},
			DecompMBps: map[corpus.Kind]float64{},
			Ratio:      map[corpus.Kind]float64{},
		}
		for _, kind := range corpus.Kinds() {
			m, err := measureCodec(lvl.Name, lvl.Codec, kind, sampleBytes)
			if err != nil {
				return nil, nil, err
			}
			ms = append(ms, m)
			profiles[li].CompMBps[kind] = m.CompMBps
			profiles[li].DecompMBps[kind] = m.DecompMBps
			profiles[li].Ratio[kind] = m.Ratio
		}
	}
	if err := cloudsim.ValidateLadder(profiles); err != nil {
		return nil, nil, fmt.Errorf("experiments: calibrated profiles invalid: %w", err)
	}
	return ms, profiles, nil
}

// LadderRow is one (ladder, scenario) outcome of the A6 ablation.
type LadderRow struct {
	Ladder   string
	Scenario string
	Seconds  float64
	Switches int
}

// AblationLadder (A6) compares the paper's four-level ladder against the
// six-level extended ladder (same algorithms at more parameter settings),
// both live-calibrated from this repository's real codecs, on scenarios
// with different bandwidth pressure. It answers the paper's open question
// of whether more levels help: extra levels cost probing but offer finer
// rate/ratio tradeoffs when bandwidth is scarce.
func AblationLadder(totalBytes int64, seed uint64) ([]LadderRow, error) {
	if totalBytes == 0 {
		totalBytes = FiftyGB
	}
	ladders := []struct {
		name   string
		ladder compress.Ladder
	}{
		{"default-4", stream.DefaultLadder()},
		{"extended-6", stream.ExtendedLadder()},
	}
	type scenario struct {
		name string
		kind corpus.Kind
		bg   int
	}
	scenarios := []scenario{
		{"HIGH/0conns", corpus.High, 0},
		{"HIGH/3conns", corpus.High, 3},
		{"MODERATE/3conns", corpus.Moderate, 3},
		{"LOW/0conns", corpus.Low, 0},
	}
	var rows []LadderRow
	for _, l := range ladders {
		_, profiles, err := CalibrateLadder(l.ladder, 2<<20)
		if err != nil {
			return nil, err
		}
		for _, sc := range scenarios {
			res, err := cloudsim.RunTransfer(cloudsim.TransferConfig{
				Platform:   cloudsim.KVMParavirt,
				Kind:       cloudsim.ConstantKind(sc.kind),
				TotalBytes: totalBytes,
				Background: sc.bg,
				Policy:     core.MustNew(core.PolicyAlgorithmOne, core.Config{Levels: len(l.ladder)}),
				Profiles:   profiles,
				Seed:       seed,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, LadderRow{
				Ladder:   l.name,
				Scenario: sc.name,
				Seconds:  res.CompletionSeconds,
				Switches: res.LevelSwitches,
			})
		}
	}
	return rows, nil
}

// RenderLadder formats the A6 rows.
func RenderLadder(rows []LadderRow) string {
	out := "--- Ablation A6: ladder size (live-calibrated codecs) ---\n"
	out += fmt.Sprintf("%-14s %-18s %12s %10s\n", "ladder", "scenario", "completion/s", "switches")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %-18s %12.0f %10d\n", r.Ladder, r.Scenario, r.Seconds, r.Switches)
	}
	return out
}
