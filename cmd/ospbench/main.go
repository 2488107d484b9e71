// Command ospbench regenerates the paper's results: it runs any (or all)
// of the experiments X1…X16 indexed in EXPERIMENTS.md and prints their
// tables. -all prints the complete report, every table under a header
// recording the seed and configuration, suitable for diffing against
// EXPERIMENTS.md after code changes.
//
// Usage:
//
//	ospbench -list
//	ospbench -exp X2 -seed 1 -trials 50
//	ospbench -all -quick
//	ospbench -all > report.txt           # full sweeps (~1 min)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ospbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ospbench", flag.ContinueOnError)
	var (
		list   = fs.Bool("list", false, "list experiments and exit")
		expID  = fs.String("exp", "", "experiment ID to run (e.g. X2)")
		all    = fs.Bool("all", false, "run every experiment")
		seed   = fs.Int64("seed", 1, "base random seed")
		trials = fs.Int("trials", 0, "Monte-Carlo repetitions per cell (0 = experiment default)")
		quick  = fs.Bool("quick", false, "shrink sweeps for a fast pass")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Quick: *quick}
	switch {
	case *all:
		start := time.Now()
		fmt.Fprintf(w, "OSP reproduction report\npaper: Emek et al., Online Set Packing (PODC 2010)\nseed: %d  quick: %v  trials: %d\n\n",
			*seed, *quick, *trials)
		if err := experiments.RunAll(cfg, w); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "report generated in %v\n", time.Since(start).Round(time.Millisecond))
		return err
	case *expID != "":
		e, err := experiments.ByID(*expID)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== %s: %s ===\nClaim: %s\n\n", e.ID, e.Title, e.Claim)
		return e.Run(cfg, w)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -exp <ID> or -all")
	}
}
