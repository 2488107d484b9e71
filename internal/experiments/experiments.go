// Package experiments contains one runnable reproduction per theorem and
// figure of the paper (see EXPERIMENTS.md for the index X1…X16). Each
// experiment builds its workloads, runs the algorithms and the OPT
// machinery, and renders a table whose rows are the paper-claim versus the
// measurement. The same runners back `go test -bench`, `cmd/ospbench` and
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
)

// Config tunes an experiment run.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// Trials is the number of Monte-Carlo repetitions per table cell
	// (where the experiment needs sampling; several use closed forms).
	// 0 means the experiment's default.
	Trials int
	// Quick shrinks parameter sweeps for use inside unit tests.
	Quick bool
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick && def > 20 {
		return def / 10
	}
	return def
}

// Experiment is one reproducible result of the paper.
type Experiment struct {
	// ID is the experiment key, e.g. "X2".
	ID string
	// Title states what is reproduced.
	Title string
	// Claim is the paper's statement being checked.
	Claim string
	// Run executes the experiment, writing its table(s) to w.
	Run func(cfg Config, w io.Writer) error
}

// All returns every experiment in index order. Each x*.go file contributes
// one constructor; assembling the list here (rather than via init
// registration) keeps the set explicit and the package free of mutable
// globals.
func All() []Experiment {
	return []Experiment{
		expX1(), expX2(), expX3(), expX4(), expX5(), expX6(),
		expX7(), expX8(), expX9(), expX10(), expX11(),
		expX12(), expX13(), expX14(), expX15(), expX16(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "=== %s: %s ===\nClaim: %s\n\n", e.ID, e.Title, e.Claim); err != nil {
			return err
		}
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// check marks a boolean verdict for table cells.
func check(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// f2, f1 format floats compactly for tables.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
