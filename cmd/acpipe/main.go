// Command acpipe is an adaptive-compression pipe filter, the gzip-shaped
// face of the library: it compresses stdin to stdout (or decompresses with
// -d) using the rate-based adaptive scheme. Because the decision input is
// the application data rate, acpipe automatically compresses harder when
// the downstream pipe is slow and backs off to plain copying when the pipe
// is fast — per the paper, with zero configuration.
//
// Usage:
//
//	tar c /data | acpipe | ssh host 'acpipe -d | tar x'
//	acpipe [-d] [-static -1|0..3] [-window 2s] [-alpha 0.2] [-stats]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adaptio"
)

func main() {
	var (
		dec      = flag.Bool("d", false, "decompress")
		static   = flag.Int("static", -1, "static level 0..3, or -1 for adaptive")
		window   = flag.Duration("window", 2*time.Second, "decision window t")
		alpha    = flag.Float64("alpha", adaptio.DefaultAlpha, "tolerance band alpha")
		parallel = flag.Int("p", 1, "compress blocks on this many parallel workers")
		stats    = flag.Bool("stats", false, "print stream statistics to stderr on completion")
	)
	flag.Parse()

	if *dec {
		if err := decompress(os.Stdin, os.Stdout, *parallel); err != nil {
			fatal(err)
		}
		return
	}
	if err := compressStream(os.Stdin, os.Stdout, *static, *window, *alpha, *parallel, *stats); err != nil {
		fatal(err)
	}
}

func compressStream(in io.Reader, out io.Writer, static int, window time.Duration, alpha float64, parallel int, stats bool) error {
	var policy adaptio.Policy = adaptio.Static(static)
	if static == -1 {
		var err error
		if policy, err = adaptio.NewPolicy("", adaptio.DeciderConfig{Levels: len(adaptio.DefaultLadder()), Alpha: alpha}); err != nil {
			return err
		}
	}
	w, err := adaptio.NewWriter(out, adaptio.WriterConfig{Window: window, Policy: policy, Parallelism: parallel})
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, in); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if stats {
		st := w.Stats()
		names := adaptio.DefaultLadder().Names()
		fmt.Fprintf(os.Stderr, "acpipe: %d app bytes -> %d wire bytes (ratio %.3f), %d blocks, %d switches\n",
			st.AppBytes, st.WireBytes, float64(st.WireBytes)/float64(st.AppBytes), st.Blocks, st.LevelSwitches)
		for lvl, blocks := range st.BlocksPerLevel {
			if blocks > 0 {
				fmt.Fprintf(os.Stderr, "acpipe:   %-7s %d blocks\n", names[lvl], blocks)
			}
		}
	}
	return nil
}

func decompress(in io.Reader, out io.Writer, parallel int) error {
	if parallel > 1 {
		r, err := adaptio.NewParallelReader(in, parallel)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(out, r)
		return err
	}
	r, err := adaptio.NewReader(in)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, r)
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acpipe: %v\n", err)
	os.Exit(1)
}
