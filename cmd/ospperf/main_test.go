package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestQuickMatrix runs the CI smoke configuration end to end: the quick
// matrix must produce a parseable report with zero steady-state
// allocations per element in every cell.
func TestQuickMatrix(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	err := run([]string{"-quick", "-shards", "1,2", "-reps", "1", "-failonalloc", "-out", out}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Bench != "admission-hot-path" || !rep.Quick {
		t.Errorf("unexpected header: %+v", rep)
	}
	if len(rep.Engine) != 2 || rep.Engine[0].Shards != 1 || rep.Engine[1].Shards != 2 {
		t.Errorf("engine matrix = %+v, want shards 1,2", rep.Engine)
	}
	if rep.Decide.KernelNsPerElement <= 0 || rep.Serial.NsPerElement <= 0 {
		t.Errorf("timings not populated: %+v", rep)
	}
	for _, sb := range rep.Engine {
		if sb.ElementsPerSec <= 0 {
			t.Errorf("shards=%d: no throughput recorded", sb.Shards)
		}
	}
	// One row per registered policy per workload (uniform, then zipf),
	// sorted registry order within each workload block.
	names := core.PolicyNames()
	if len(rep.Policies) != 2*len(names) {
		t.Fatalf("policy bench has %d rows, want one per registered policy (%d) per workload (2)",
			len(rep.Policies), len(names))
	}
	benefit := map[string]float64{}
	for i, pb := range rep.Policies {
		wantName := names[i%len(names)]
		wantWorkload := "uniform"
		if i >= len(names) {
			wantWorkload = "zipf"
		}
		if pb.Policy != wantName || pb.Workload != wantWorkload {
			t.Errorf("policies[%d] = %q on %q, want %q on %q", i, pb.Policy, pb.Workload, wantName, wantWorkload)
		}
		if pb.NsPerElement <= 0 || pb.ElementsPerSec <= 0 {
			t.Errorf("policy %s (%s): timings not populated: %+v", pb.Policy, pb.Workload, pb)
		}
		if pb.AllocsPerElement > 0 {
			t.Errorf("policy %s (%s): %.3f allocs/element in steady state, want 0", pb.Policy, pb.Workload, pb.AllocsPerElement)
		}
		if pb.Policy != "first-fit" && pb.MeanBenefit <= 0 {
			t.Errorf("policy %s (%s): mean benefit %.3f not populated", pb.Policy, pb.Workload, pb.MeanBenefit)
		}
		benefit[pb.Policy+"/"+pb.Workload] = pb.MeanBenefit
	}
	// The zipf workload exists to distinguish the weighted variant: its
	// mean benefit must diverge from plain randpr's there.
	if benefit["randpr/zipf"] == benefit["randpr-weighted/zipf"] {
		t.Errorf("zipf rows: randpr and randpr-weighted report identical mean benefit %.3f — the skewed scenario is not distinguishing",
			benefit["randpr/zipf"])
	}

	// Service rows: json over HTTP, then binary over the stream.
	if len(rep.Service) != 2 ||
		rep.Service[0].Codec != "json" || rep.Service[0].Transport != "http" ||
		rep.Service[1].Codec != "binary" || rep.Service[1].Transport != "stream" {
		t.Fatalf("service rows = %+v, want [json/http binary/stream]", rep.Service)
	}
	for _, sb := range rep.Service {
		if sb.ElementsPerSec <= 0 || sb.NsPerElement <= 0 {
			t.Errorf("service %s/%s: timings not populated: %+v", sb.Codec, sb.Transport, sb)
		}
	}
	// The wire-path floor even at smoke sizes: the stream at >= 4x JSON,
	// what the retired binary-HTTP row's two floors (>= 4x JSON, stream
	// faster still) implied together.
	if sp := rep.Service[1].SpeedupVsJSON; sp < 4 {
		t.Errorf("stream service path is %.2fx JSON, want >= 4x", sp)
	}
	if a := rep.Service[1].AllocsPerElement; a > 0.1 {
		t.Errorf("stream service row allocates %.3f/element process-wide, want <= 0.1", a)
	}

	// Cluster scaling rows: the quick matrix runs fleets of 1 and 2, the
	// multi-node row carrying its speedup against the single-node
	// baseline. The speedup itself is informational here — a 1-vCPU
	// runner cannot make fan-out pay — but every row must be populated
	// and oracle-verified (benchCluster fails otherwise).
	if len(rep.Cluster) != 2 || rep.Cluster[0].Nodes != 1 || rep.Cluster[1].Nodes != 2 {
		t.Fatalf("cluster rows = %+v, want fleets of 1 and 2", rep.Cluster)
	}
	for _, cb := range rep.Cluster {
		if cb.ElementsPerSec <= 0 || cb.NsPerElement <= 0 {
			t.Errorf("cluster nodes=%d: timings not populated: %+v", cb.Nodes, cb)
		}
	}
	if rep.Cluster[1].SpeedupVsSingle <= 0 {
		t.Errorf("2-node cluster row missing its speedup-vs-single column: %+v", rep.Cluster[1])
	}
}

// TestCompareMode pins the -compare arm: matched rows get deltas (an
// older report's first stream row is the baseline for the stream row,
// and a later row under the same key — BENCH_6's striped and
// copy-decode rows — must not displace it), regressions past -regress
// fail, pure speedups and new rows pass, and bad invocations error
// cleanly.
func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep Report) string {
		t.Helper()
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldRep := Report{
		Bench:  "admission-hot-path",
		Serial: SerialBench{Elements: 100, NsPerElement: 100},
		Engine: []ShardBench{{Shards: 1, Elements: 100, NsPerElement: 200}},
		Service: []ServiceBench{
			{Codec: "binary", Transport: "stream", NsPerElement: 370}, // the single-connection row
			{Codec: "binary", Transport: "stream", NsPerElement: 100}, // same key, not the baseline
		},
	}
	newRep := Report{
		Bench:  "admission-hot-path",
		Serial: SerialBench{Elements: 100, NsPerElement: 105}, // +5%: within threshold
		Engine: []ShardBench{{Shards: 1, Elements: 100, NsPerElement: 150}},
		Service: []ServiceBench{
			{Codec: "json", Transport: "http", NsPerElement: 2500}, // new row
			{Codec: "binary", Transport: "stream", NsPerElement: 290},
		},
	}
	oldPath, newPath := write("old.json", oldRep), write("new.json", newRep)

	var buf bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, &buf); err != nil {
		t.Fatalf("compare of an improved report failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, frag := range []string{
		"service/binary/stream ", // the first-row match gets a delta line
		"service/json/http",
		"(new row)",
		"no row regressed",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("compare output missing %q:\n%s", frag, out)
		}
	}

	// A >threshold slowdown on a shared row must fail and name the row.
	slow := newRep
	slow.Serial = SerialBench{Elements: 100, NsPerElement: 160} // +60%
	slowPath := write("slow.json", slow)
	buf.Reset()
	err := run([]string{"-compare", "-regress", "0.5", oldPath, slowPath}, &buf)
	if err == nil || !strings.Contains(err.Error(), "serial") {
		t.Fatalf("compare with a 60%% serial regression = %v, want failure naming the row", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("regressed row not marked in output:\n%s", buf.String())
	}

	// The same pair passes with a permissive threshold.
	buf.Reset()
	if err := run([]string{"-compare", "-regress", "0.7", oldPath, slowPath}, &buf); err != nil {
		t.Fatalf("compare with threshold 0.7 failed: %v", err)
	}

	// Runs at other configurations, or a shared row at other sizes, are
	// refused naming the field, however close their numbers.
	quick := newRep
	quick.Quick = true
	procs := newRep
	procs.GOMAXPROCS = 2
	elems := newRep
	elems.Serial = SerialBench{Elements: 200, NsPerElement: 100}
	batch := newRep
	batch.Service = []ServiceBench{{Codec: "binary", Transport: "stream", Batch: 1024, NsPerElement: 290}}
	for _, tc := range []struct {
		name, field string
		rep         Report
	}{
		{"quick", "quick", quick},
		{"gomaxprocs", "gomaxprocs", procs},
		{"elements", "serial: elements 100 -> 200", elems},
		{"batch", "service/binary/stream: batch 0 -> 1024", batch},
	} {
		buf.Reset()
		err := run([]string{"-compare", oldPath, write(tc.name+".json", tc.rep)}, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("compare with a different %s = %v, want failure naming %q", tc.name, err, tc.field)
		}
	}

	if err := run([]string{"-compare", oldPath}, &buf); err == nil {
		t.Error("compare with one path accepted")
	}
	if err := run([]string{"-compare", oldPath, filepath.Join(dir, "missing.json")}, &buf); err == nil {
		t.Error("compare with a missing file accepted")
	}
	if err := run([]string{"-compare", "-regress", "-1", oldPath, newPath}, &buf); err == nil {
		t.Error("negative regress threshold accepted")
	}
}

func TestParseShards(t *testing.T) {
	got, err := parseShards("1, 2,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Errorf("parseShards = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "x", "1,,2"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) accepted", bad)
		}
	}
}

// TestStdoutOnly: without -out the report goes to stdout, so a bare run
// never overwrites the tracked baseline.
func TestStdoutOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-shards", "1", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "decide kernel") {
		t.Errorf("missing report lines:\n%s", buf.String())
	}
	// The default -out - must emit the JSON report itself, not just the
	// summary.
	start := strings.Index(buf.String(), "{")
	if start < 0 {
		t.Fatalf("no JSON in output:\n%s", buf.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(buf.String()[start:]), &rep); err != nil {
		t.Errorf("stdout JSON does not parse: %v", err)
	}
}
