package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/osp"
)

// TestLoadgenEmbeddedVerified runs the generator end to end against the
// embedded server and requires the bit-for-bit oracle check to pass.
func TestLoadgenEmbeddedVerified(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-m", "40", "-n", "5000", "-load", "4", "-batch", "250", "-seed", "9"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"workload: osp instance: m=40",
		"(embedded), instance i-1",
		"loadgen:  5000 elements",
		"verdicts:",
		"goodput:",
		"verify:   drained result bit-for-bit identical",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestLoadgenPolicies runs the generator against the embedded server once
// per registered policy and requires each drained result to match that
// policy's serial oracle.
func TestLoadgenPolicies(t *testing.T) {
	for _, pol := range osp.PolicyNames() {
		var buf bytes.Buffer
		err := run([]string{"-m", "20", "-n", "1000", "-load", "3", "-batch", "200",
			"-seed", "4", "-policy", pol}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for _, frag := range []string{
			"policy " + pol,
			"verify:   drained result bit-for-bit identical to serial " + pol + " oracle",
		} {
			if !strings.Contains(buf.String(), frag) {
				t.Errorf("%s: output missing %q:\n%s", pol, frag, buf.String())
			}
		}
	}
}

// TestLoadgenStreamTransport runs the pipelined stream path on both
// entries — the HTTP upgrade of the embedded server, and a node's raw
// stream listener named by -stream-addr: the oracle check must pass,
// and the report must name the codec, depth and entry it actually used.
// The retired -transport and -conns flags are undefined.
func TestLoadgenStreamTransport(t *testing.T) {
	node, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Shutdown(context.Background()) }) //nolint:errcheck
	for _, tc := range []struct {
		args []string
		via  string
	}{
		{nil, "codec stream, pipeline 4 via HTTP upgrade"},
		{[]string{"-addr", node.Config().BaseURL, "-stream-addr", node.Config().StreamAddr},
			"codec stream, pipeline 4 via " + node.Config().StreamAddr},
	} {
		var buf bytes.Buffer
		args := append([]string{"-m", "40", "-n", "6000", "-load", "4", "-batch", "250",
			"-seed", "9", "-pipeline", "4"}, tc.args...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{
			tc.via,
			"latency:  per-batch client-observed p50",
			"verify:   drained result bit-for-bit identical",
		} {
			if !strings.Contains(buf.String(), frag) {
				t.Errorf("output missing %q:\n%s", frag, buf.String())
			}
		}
	}

	var buf bytes.Buffer
	if err := run([]string{"-pipeline", "0", "-n", "10"}, &buf); err == nil {
		t.Error("pipeline depth 0 accepted")
	}
	for _, retired := range [][]string{{"-transport", "stream"}, {"-conns", "2"}} {
		if err := run(append(retired, "-n", "10"), &buf); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v = %v, want an undefined-flag error", retired, err)
		}
	}
}

// TestLoadgenUnknownPolicy pins the registry rejection surfacing through
// the client as a 400.
func TestLoadgenUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-m", "5", "-n", "10", "-policy", "bogus"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown policy error = %v, want the bad name in the message", err)
	}
}

// TestLoadgenRatePacing exercises the pacing branch with a small run.
func TestLoadgenRatePacing(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-m", "10", "-n", "400", "-load", "2", "-batch", "100", "-rate", "20000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rate target 20000 elements/s") {
		t.Errorf("rate target not echoed:\n%s", buf.String())
	}
}

// TestLoadgenNoVerify covers the -verify=false path.
func TestLoadgenNoVerify(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-m", "10", "-n", "200", "-load", "2", "-batch", "50", "-verify=false"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "verify:") {
		t.Errorf("verify line printed despite -verify=false:\n%s", buf.String())
	}
}

// TestLoadgenErrors pins flag and connection failures.
func TestLoadgenErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-batch", "0"}, &buf); err == nil {
		t.Error("batch 0 accepted")
	}
	if err := run([]string{"-addr", "ftp://nope", "-n", "10"}, &buf); err == nil {
		t.Error("bad scheme accepted")
	}
	// A dead server fails the health probe, not the stream.
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-n", "10"}, &buf); err == nil {
		t.Error("unreachable server accepted")
	}
}

// TestLoadgenCodecs runs the generator once per codec and once with the
// default; all three must verify against the serial oracle — the
// "-verify passes over the new codec" acceptance — and report the codec
// actually used.
func TestLoadgenCodecs(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"", "codec stream"}, // the default
		{"json", "codec json"},
		{"binary", "codec stream"},
	} {
		args := []string{"-m", "30", "-n", "3000", "-load", "4", "-batch", "300", "-seed", "11"}
		if tc.flag != "" {
			args = append(args, "-codec", tc.flag)
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("codec %q: %v", tc.flag, err)
		}
		for _, frag := range []string{
			tc.want,
			"verify:   drained result bit-for-bit identical",
		} {
			if !strings.Contains(buf.String(), frag) {
				t.Errorf("codec %q: output missing %q:\n%s", tc.flag, frag, buf.String())
			}
		}
	}
	for _, bad := range []string{"bogus", "auto"} {
		var buf bytes.Buffer
		if err := run([]string{"-codec", bad, "-n", "10"}, &buf); err == nil {
			t.Errorf("codec %q accepted", bad)
		}
	}
}

// TestLoadgenClusterMode routes the generator through a 2-node cluster
// coordinator (-nodes): the element stream fans across both nodes by
// element hash, forwards over node 0's raw stream listener and, for
// node 1's empty -stream-nodes entry, through its HTTP upgrade, and the
// merged drain still verifies bit-for-bit against the serial oracle.
func TestLoadgenClusterMode(t *testing.T) {
	var nodes, streams []string
	for i := 0; i < 2; i++ {
		ln, err := cluster.StartLocalNode(osp.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Shutdown(context.Background()) }) //nolint:errcheck
		nodes = append(nodes, ln.Config().BaseURL)
		streams = append(streams, ln.Config().StreamAddr)
	}
	var buf bytes.Buffer
	err := run([]string{"-m", "30", "-n", "3000", "-load", "3", "-batch", "250", "-seed", "21",
		"-nodes", strings.Join(nodes, ","), "-stream-nodes", streams[0] + ","}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"target:   cluster of 2 nodes, instance c-0 on slots [0 1]",
		"loadgen:  3000 elements",
		"verify:   merged cluster drain bit-for-bit identical to serial randpr oracle",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}

	// Cluster mode and a single -addr target are mutually exclusive.
	if err := run([]string{"-nodes", nodes[0], "-addr", nodes[0], "-n", "10"}, &buf); err == nil {
		t.Error("-nodes with -addr accepted")
	}
	// Mismatched stream list lengths are a config error.
	if err := run([]string{"-nodes", strings.Join(nodes, ","), "-stream-nodes", streams[0], "-n", "10"}, &buf); err == nil {
		t.Error("mismatched -stream-nodes length accepted")
	}
}

// TestLoadgenZipfWeights runs the skewed-weight scenario: under Zipf
// weights randpr-weighted must verify against ITS oracle, and its
// benefit must diverge from plain randpr's on the same workload — the
// distinguishing comparison unit weights cannot provide.
func TestLoadgenZipfWeights(t *testing.T) {
	goodput := func(policy string) string {
		t.Helper()
		var buf bytes.Buffer
		err := run([]string{"-m", "30", "-n", "2000", "-load", "2", "-cap", "1",
			"-batch", "250", "-seed", "3", "-zipf", "1.2", "-policy", policy}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		out := buf.String()
		if !strings.Contains(out, "verify:   drained result bit-for-bit identical to serial "+policy+" oracle") {
			t.Fatalf("%s: oracle check missing:\n%s", policy, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "goodput:") {
				return line
			}
		}
		t.Fatalf("%s: no goodput line:\n%s", policy, out)
		return ""
	}
	plain := goodput("randpr")
	weighted := goodput("randpr-weighted")
	if plain == weighted {
		t.Errorf("zipf weights: randpr and randpr-weighted report identical goodput %q — the scenario is not distinguishing", plain)
	}

	var buf bytes.Buffer
	if err := run([]string{"-zipf", "-1", "-n", "10"}, &buf); err == nil {
		t.Error("negative zipf exponent accepted")
	}
}
