package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"X1", "X7", "X15"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "X7", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Theorem 3") {
		t.Errorf("X7 output missing title:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "NO") {
		t.Errorf("X7 has failed verdicts:\n%s", buf.String())
	}
}

// TestAllQuickReport runs the complete report: the header, every
// experiment X1 through X16, the footer, and no failed verdict.
func TestAllQuickReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-all", "-quick", "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"OSP reproduction report", "seed: 1  quick: true  trials: 2", "report generated in"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	for i := 1; i <= 16; i++ {
		if frag := fmt.Sprintf("=== X%d:", i); !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("report contains failed verdicts:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "X99"}, &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestNoAction(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no flags should error")
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Error("bad flag should error")
	}
}

// TestExperimentsDocCommands runs the arguments of every
// `$ go run ./cmd/ospbench ...` line in EXPERIMENTS.md through run,
// adding -quick where a line lacks it, so the documented commands
// cannot drift from the flags.
func TestExperimentsDocCommands(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "$ go run ./cmd/ospbench"
	n := 0
	for _, line := range strings.Split(string(doc), "\n") {
		cmd, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		n++
		cmd, _, _ = strings.Cut(cmd, "#")
		args := strings.Fields(cmd)
		if !slices.Contains(args, "-quick") {
			args = append(args, "-quick")
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Errorf("%s: %v", strings.TrimSpace(line), err)
		}
	}
	if n == 0 {
		t.Fatalf("EXPERIMENTS.md lists no %q command", prefix)
	}
}
