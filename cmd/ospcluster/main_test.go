package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/osp"
)

// TestRunEmbeddedVerify is the happy path: an embedded 2-node fleet,
// fan-out ingest, merged drain verified against the serial oracle.
func TestRunEmbeddedVerify(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-spawn", "2", "-m", "30", "-n", "3000", "-load", "3", "-batch", "250"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"fleet:    2 nodes (embedded), journal on",
		"on slots [0 1]",
		"verify:   merged drain bit-for-bit identical to serial randpr oracle",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunExternalNodes drives an external 2-node fleet through -nodes:
// the merged drain verifies against the serial oracle, and every node
// streams its share through an HTTP upgrade of its base URL.
func TestRunExternalNodes(t *testing.T) {
	var bases []string
	for i := 0; i < 2; i++ {
		ln, err := cluster.StartLocalNode(osp.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Shutdown(context.Background()) }) //nolint:errcheck
		bases = append(bases, ln.Config().BaseURL)
	}
	var b strings.Builder
	err := run([]string{"-nodes", strings.Join(bases, ","),
		"-m", "30", "-n", "3000", "-load", "3", "-batch", "250"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"fleet:    2 nodes, journal on",
		"on slots [0 1]",
		"verify:   merged drain bit-for-bit identical to serial randpr oracle",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	const upgraded = `osp_http_requests_total{handler="GET /v1/stream",code="101"}`
	for slot, base := range bases {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), upgraded) {
			t.Errorf("slot %d answered no stream upgrade", slot)
		}
	}
}

// TestRunPinned covers the ring arm: a non-fan-out instance lands on
// exactly one slot and still verifies.
func TestRunPinned(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-spawn", "2", "-fanout=false", "-m", "20", "-n", "2000", "-load", "3", "-batch", "200"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "verify:") {
		t.Errorf("output missing verify line:\n%s", b.String())
	}
}

// TestRunFailoverJournal is the CLI failover demo: kill a node halfway,
// replace it, and the journaled replay keeps the drain exact.
func TestRunFailoverJournal(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-spawn", "3", "-kill", "1", "-kill-at", "0.4",
		"-m", "30", "-n", "3000", "-load", "3", "-batch", "200", "-print-metrics"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"kill:     slot 1 down",
		"failover: slot 1 replaced by",
		"verify:   merged drain bit-for-bit identical to serial randpr oracle",
		"osp_cluster_failovers_total 1",
		"osp_cluster_lost_elements_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunFailoverNoJournal pins the lossy arm: journal off, the dead
// node's acked share is reported as lost and the drain verifies against
// the surviving-subsequence oracle.
func TestRunFailoverNoJournal(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-spawn", "3", "-kill", "0", "-kill-at", "0.5", "-journal=false",
		"-m", "30", "-n", "3000", "-load", "3", "-batch", "200"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"lost:     ",
		"surviving-subsequence",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAutoFailover is the zero-operator arm: the health monitor is
// armed with a spare, a node is killed mid-stream, and recovery happens
// with no ReplaceNode anywhere in the loop — the drain still verifies
// bit-for-bit and the metrics attribute the failover to the monitor.
func TestRunAutoFailover(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-spawn", "3", "-kill", "1", "-kill-at", "0.4",
		"-spares", "1", "-auto-failover", "-health-interval", "25ms",
		"-m", "30", "-n", "3000", "-load", "3", "-batch", "200", "-print-metrics"}, &b)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"health:   monitor armed, probe every 25ms, 1 spare(s), auto-failover on",
		"kill:     slot 1 down",
		"health:   slot 1 auto-failover -> ",
		"verify:   merged drain bit-for-bit identical to serial randpr oracle",
		"osp_cluster_auto_failovers_total 1",
		"osp_cluster_spares 0",
		"osp_cluster_lost_elements_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failover: slot") {
		t.Errorf("manual failover path ran with -auto-failover armed:\n%s", out)
	}
}

// TestRunFlagValidation: the error arms that must not silently
// misbehave.
func TestRunFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"kill-external":     {"-nodes", "http://localhost:1", "-kill", "0"},
		"kill-range":        {"-spawn", "2", "-kill", "5"},
		"kill-at-range":     {"-spawn", "2", "-kill", "0", "-kill-at", "1.5"},
		"batch-zero":        {"-batch", "0"},
		"spawn-zero":        {"-spawn", "0"},
		"zipf-negative":     {"-zipf", "-1"},
		"spares-external":   {"-nodes", "http://localhost:1", "-spares", "1"},
		"autofail-no-spare": {"-spawn", "2", "-kill", "0", "-auto-failover"},
		"unknown-policy":    {"-spawn", "1", "-policy", "nope", "-n", "100"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			if err := run(args, &b); err == nil {
				t.Errorf("run(%v) succeeded, want error", args)
			}
		})
	}
}
