// Command tasmbench regenerates the evaluation figures of the TASM paper
// (Section VII) at reproduction scale and prints the series each figure
// plots. -fig names the figure (9a, 9b, 9c, 10, 11, 12, or the ablation
// of the τ′ bound and the prefix ring buffer); each has one runner in
// internal/experiments, whose package comment states the scale reduction
// and the claims it preserves.
//
// Usage:
//
//	tasmbench -fig 9a           # runtime vs document size
//	tasmbench -fig all -quick   # everything, small scales
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tasm/internal/experiments"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to reproduce: 9a, 9b, 9c, 10, 11, 12, ablation or all")
		quick = flag.Bool("quick", false, "use small document scales (seconds instead of minutes)")
		seed  = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if err := run(os.Stdout, *fig, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tasmbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig string, cfg experiments.Config) error {
	runners := map[string]func() error{
		"9a":       func() error { _, err := experiments.Fig9a(w, cfg); return err },
		"9b":       func() error { _, err := experiments.Fig9b(w, cfg); return err },
		"9c":       func() error { _, err := experiments.Fig9c(w, cfg); return err },
		"10":       func() error { _, err := experiments.Fig10(w, cfg); return err },
		"11":       func() error { _, err := experiments.Fig11(w, cfg); return err },
		"12":       func() error { _, err := experiments.Fig12(w, cfg); return err },
		"ablation": func() error { _, err := experiments.Ablation(w, cfg); return err },
	}
	if fig == "all" {
		for _, name := range []string{"9a", "9b", "9c", "10", "11", "12", "ablation"} {
			if err := runners[name](); err != nil {
				return fmt.Errorf("figure %s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := runners[fig]
	if !ok {
		return fmt.Errorf("unknown figure %q (want 9a, 9b, 9c, 10, 11, 12 or all)", fig)
	}
	return r()
}
