// Command ospperf measures the admission hot path and emits the
// benchmark report the tracked baseline (BENCH_6.json) is made of:
// ns/element and allocs/element for the top-k decide kernel (against
// the sort-based path it replaced), the serial runner, the streaming
// engine across a shard-count matrix, every registered admission policy
// on both the uniform and the skewed Zipf-weight workload, the
// service-level mode — the full networked ingest path over an embedded
// server: JSON over HTTP, and the binary frames pipelined over one
// raw-TCP verdict stream — and the cluster scaling rows: the same
// workload fanned across N coordinator-fronted nodes by element hash
// and merged on drain.
//
// Usage:
//
//	ospperf                       # full matrix, JSON report on stdout
//	ospperf -out BENCH_6.json     # regenerate the tracked baseline
//	ospperf -quick -out /dev/null # CI smoke sizes
//	ospperf -failonalloc          # exit 1 on any allocs/element > 0
//	ospperf -compare BENCH_7.json NEW.json
//	                              # per-row ns/element deltas; exit 1 when
//	                              # any shared row regresses past -regress,
//	                              # or when the two runs' quick, gomaxprocs,
//	                              # or a shared row's elements or batch differ
//
// The JSON is the regression contract: future PRs rerun ospperf and
// diff against the committed baseline with -compare (engine rows must
// stay within noise; the stream service row anchors the wire-path win
// over JSON; the cluster rows anchor scaling, meaningful only on
// multi-core runners). CI runs the -quick
// -failonalloc mode on every push and uploads the artifact, and
// compares a GOMAXPROCS=2 quick run against the committed quick
// baseline BENCH_7.json — informational on single-vCPU runners,
// enforced where parallelism is real.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hashpr"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/workload"
	"repro/osp"
	"repro/osp/client"
)

// Report is the schema of the tracked baseline, BENCH_6.json. Older
// reports parse into it too: rows they lack stay zero, and rows this
// version no longer measures are ignored.
type Report struct {
	Bench         string       `json:"bench"`
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Quick         bool         `json:"quick"`
	Decide        DecideBench  `json:"decide"`
	Serial        SerialBench  `json:"serial"`
	Engine        []ShardBench `json:"engine"`
	// EngineTelemetry re-runs the shards=4 engine row with full
	// observability attached — sampled decision log (hot drainer, nil
	// sink) plus queue-wait and decide histograms — proving telemetry
	// keeps the hot path at 0 allocs/element. Included in -failonalloc.
	EngineTelemetry ShardBench    `json:"engine_telemetry"`
	Policies        []PolicyBench `json:"policies"`
	// Service is the end-to-end networked ingest path (embedded HTTP
	// server, real client, loopback TCP): the JSON row, then the stream
	// row.
	Service []ServiceBench `json:"service"`
	// Cluster is the horizontal-scaling matrix: the same workload fanned
	// across N coordinator-fronted nodes by element hash, one row per
	// fleet size. Nodes=1 is the cluster-overhead baseline the speedup
	// column is relative to.
	Cluster []ClusterBench `json:"cluster"`
}

// DecideBench is the capacity<=8 selection microbenchmark: the new
// partial-selection kernel versus the sort-based path it replaced, on the
// same element sample.
type DecideBench struct {
	Elements           int     `json:"elements"`
	MeanLoad           float64 `json:"mean_load"`
	CapacityMax        int     `json:"capacity_max"`
	KernelNsPerElement float64 `json:"kernel_ns_per_element"`
	SortNsPerElement   float64 `json:"sort_ns_per_element"`
	Speedup            float64 `json:"speedup"`
	AllocsPerElement   float64 `json:"allocs_per_element"`
}

// SerialBench is the serial HashRandPr runner on the matrix workload.
type SerialBench struct {
	Elements     int     `json:"elements"`
	NsPerElement float64 `json:"ns_per_element"`
}

// ShardBench is one engine configuration on the matrix workload.
type ShardBench struct {
	Shards           int     `json:"shards"`
	Elements         int     `json:"elements"`
	NsPerElement     float64 `json:"ns_per_element"`
	ElementsPerSec   float64 `json:"elements_per_sec"`
	AllocsPerElement float64 `json:"allocs_per_element"`
}

// PolicyBench is one registered admission policy streamed through the
// engine on one workload: end-to-end timing, the steady-state
// allocation probe, and the mean benefit over a handful of seeds of the
// policy's serial oracle (deterministic policies repeat one value).
// Workload "uniform" is the unit-weight matrix workload; "zipf" is the
// skewed-weight scenario (w(S_i) ∝ 1/(i+1)^1.2) where randpr-weighted
// actually diverges from randpr — on unit weights the two decide
// identically, so only the zipf rows distinguish them.
type PolicyBench struct {
	Policy           string  `json:"policy"`
	Workload         string  `json:"workload"`
	Shards           int     `json:"shards"`
	Elements         int     `json:"elements"`
	NsPerElement     float64 `json:"ns_per_element"`
	ElementsPerSec   float64 `json:"elements_per_sec"`
	AllocsPerElement float64 `json:"allocs_per_element"`
	MeanBenefit      float64 `json:"mean_benefit"`
}

// ServiceBench is the networked ingest path under one wire codec and
// transport: the matrix workload streamed through a real server on
// loopback sockets via osp/client, timed end to end (register, batched
// ingest with verdicts, drain). Codec "json" over transport "http" is
// one keep-alive request per batch; codec "binary" over transport
// "stream" is pipelined batch frames over one long-lived connection
// upgraded from the same HTTP listener. AllocsPerElement is process-wide — client encode +
// server decode + verdict paths together — so it bounds the serve-side
// number from above; the serve package's alloc-regression tests pin
// the decode paths themselves at 0. SpeedupVsJSON is filled on the
// stream row.
type ServiceBench struct {
	Codec            string  `json:"codec"`
	Transport        string  `json:"transport"`
	Elements         int     `json:"elements"`
	Batch            int     `json:"batch"`
	NsPerElement     float64 `json:"ns_per_element"`
	ElementsPerSec   float64 `json:"elements_per_sec"`
	AllocsPerElement float64 `json:"allocs_per_element"`
	SpeedupVsJSON    float64 `json:"speedup_vs_json,omitempty"`
}

// ClusterBench is one fleet size of the cluster scaling matrix: the
// matrix workload streamed through a coordinator that scatters each
// batch across N embedded nodes by element hash (stream transport per
// node) and merges the per-node drains. SpeedupVsSingle compares
// against the nodes=1 row — the coordinator overhead included on both
// sides, so it isolates the horizontal win. On a single-core runner the
// fan-out cannot beat one node; CI gates the 2-node floor only on
// multi-core runners.
type ClusterBench struct {
	Nodes           int     `json:"nodes"`
	Elements        int     `json:"elements"`
	Batch           int     `json:"batch"`
	NsPerElement    float64 `json:"ns_per_element"`
	ElementsPerSec  float64 `json:"elements_per_sec"`
	SpeedupVsSingle float64 `json:"speedup_vs_single,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ospperf:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ospperf", flag.ContinueOnError)
	var (
		out         = fs.String("out", "-", "output JSON path (- prints the JSON to stdout)")
		shardsFlag  = fs.String("shards", "1,2,4,8", "comma-separated shard counts for the engine matrix")
		quick       = fs.Bool("quick", false, "small sizes for a CI smoke pass")
		reps        = fs.Int("reps", 3, "timed repetitions per cell (best-of)")
		seed        = fs.Int64("seed", 1, "workload generation seed")
		failOnAlloc = fs.Bool("failonalloc", false, "exit nonzero if any steady-state allocs/element > 0 (service rows excluded: they include client-side JSON marshal)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		compare     = fs.Bool("compare", false, "compare mode: ospperf -compare OLD.json NEW.json prints per-row ns/element deltas and exits nonzero on regressions past -regress")
		regress     = fs.Float64("regress", 0.25, "compare mode: fail when a shared row's ns/element grows by more than this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two report paths (old new), got %d args", fs.NArg())
		}
		return compareReports(fs.Arg(0), fs.Arg(1), *regress, w)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	shardCounts, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}

	rep := Report{
		Bench:         "admission-hot-path",
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         *quick,
	}

	// Matrix workload: a long uniform element stream in the engine's
	// target shape — loads well above the link capacity so every decide
	// trims, capacity in the small-b(u) regime.
	m, n := 8192, 300_000
	if *quick {
		m, n = 1024, 20_000
	}
	rng := rand.New(rand.NewSource(*seed))
	inst, err := workload.Uniform(workload.UniformConfig{
		M: m, N: n, Load: 12, MinLoad: 4, Capacity: 4,
	}, rng)
	if err != nil {
		return err
	}
	// Skewed-weight companion workload: same shape, Zipf(1.2) weights.
	// Unit weights make randpr-weighted decide identically to randpr
	// (scaling priorities by a constant preserves order), so only this
	// workload separates the weighted variant's policy rows.
	zipfInst, err := workload.Uniform(workload.UniformConfig{
		M: m, N: n, Load: 12, MinLoad: 4, Capacity: 4,
		WeightFn: workload.ZipfWeights(1.2, 10),
	}, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	rep.Decide = benchDecide(inst, *reps, *seed)
	fmt.Fprintf(w, "decide kernel: %.1f ns/element (sort path %.1f, speedup %.2fx, allocs %.3f)\n",
		rep.Decide.KernelNsPerElement, rep.Decide.SortNsPerElement, rep.Decide.Speedup, rep.Decide.AllocsPerElement)

	rep.Serial = benchSerial(inst, *reps, *seed)
	fmt.Fprintf(w, "serial runner: %.1f ns/element over %d elements\n", rep.Serial.NsPerElement, rep.Serial.Elements)

	for _, sc := range shardCounts {
		sb, err := benchEngine(inst, sc, *reps, *seed)
		if err != nil {
			return err
		}
		rep.Engine = append(rep.Engine, sb)
		fmt.Fprintf(w, "engine shards=%d: %.1f ns/element, %.0f elements/s, allocs/element %.3f\n",
			sb.Shards, sb.NsPerElement, sb.ElementsPerSec, sb.AllocsPerElement)
	}

	rep.EngineTelemetry, err = benchEngineTelemetry(inst, *reps, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "engine shards=%d (telemetry on): %.1f ns/element, %.0f elements/s, allocs/element %.3f\n",
		rep.EngineTelemetry.Shards, rep.EngineTelemetry.NsPerElement,
		rep.EngineTelemetry.ElementsPerSec, rep.EngineTelemetry.AllocsPerElement)

	for _, wl := range []struct {
		name string
		inst *setsystem.Instance
	}{{"uniform", inst}, {"zipf", zipfInst}} {
		for _, name := range core.PolicyNames() {
			pb, err := benchPolicy(wl.inst, wl.name, name, *reps, *seed)
			if err != nil {
				return err
			}
			rep.Policies = append(rep.Policies, pb)
			fmt.Fprintf(w, "policy %s (%s): %.1f ns/element, %.0f elements/s, allocs/element %.3f, mean benefit %.1f\n",
				pb.Policy, pb.Workload, pb.NsPerElement, pb.ElementsPerSec, pb.AllocsPerElement, pb.MeanBenefit)
		}
	}

	svcBatch := 4096
	if *quick {
		svcBatch = 1024
	}
	jsonRow, err := benchService(inst, client.CodecJSON, svcBatch, *reps, *seed)
	if err != nil {
		return err
	}
	streamRow, err := benchService(inst, client.CodecBinary, svcBatch, *reps, *seed)
	if err != nil {
		return err
	}
	streamRow.SpeedupVsJSON = streamRow.ElementsPerSec / jsonRow.ElementsPerSec
	rep.Service = []ServiceBench{jsonRow, streamRow}
	for _, sb := range rep.Service {
		printService(w, sb)
	}

	clusterSizes := []int{1, 2}
	if !*quick {
		clusterSizes = append(clusterSizes, 4)
	}
	var singleRate float64
	for _, nodes := range clusterSizes {
		cb, err := benchCluster(inst, nodes, svcBatch, *reps, *seed)
		if err != nil {
			return err
		}
		if nodes == 1 {
			singleRate = cb.ElementsPerSec
		} else if singleRate > 0 {
			cb.SpeedupVsSingle = cb.ElementsPerSec / singleRate
		}
		rep.Cluster = append(rep.Cluster, cb)
		fmt.Fprintf(w, "cluster nodes=%d: %.1f ns/element, %.0f elements/s", cb.Nodes, cb.NsPerElement, cb.ElementsPerSec)
		if cb.SpeedupVsSingle > 0 {
			fmt.Fprintf(w, ", %.2fx single-node", cb.SpeedupVsSingle)
		}
		fmt.Fprintln(w)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *out == "-" {
		fmt.Fprintf(w, "%s\n", buf)
	} else {
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}

	if *failOnAlloc {
		if rep.Decide.AllocsPerElement > 0 {
			return fmt.Errorf("decide kernel allocates %.3f/element, want 0", rep.Decide.AllocsPerElement)
		}
		for _, sb := range append(append([]ShardBench(nil), rep.Engine...), rep.EngineTelemetry) {
			if sb.AllocsPerElement > 0 {
				return fmt.Errorf("engine shards=%d allocates %.3f/element in steady state, want 0", sb.Shards, sb.AllocsPerElement)
			}
		}
		for _, pb := range rep.Policies {
			if pb.AllocsPerElement > 0 {
				return fmt.Errorf("policy %s (%s) allocates %.3f/element in steady state, want 0", pb.Policy, pb.Workload, pb.AllocsPerElement)
			}
		}
		// Service rows are measured process-wide (client marshal included),
		// so the JSON row legitimately allocates; the serve-side decode
		// path's 0 allocs/element is enforced by the alloc-regression tests
		// in internal/serve instead. Hold the stream row — whose client
		// and server sides both run on pooled buffers — near zero.
		for _, sb := range rep.Service {
			if sb.Transport == "stream" && sb.AllocsPerElement > 0.1 {
				return fmt.Errorf("stream service path allocates %.3f/element process-wide, want <= 0.1", sb.AllocsPerElement)
			}
		}
	}
	return nil
}

// printService renders one service row on the progress log.
func printService(w io.Writer, sb ServiceBench) {
	fmt.Fprintf(w, "service codec=%s transport=%s: %.1f ns/element, %.0f elements/s, allocs/element %.3f",
		sb.Codec, sb.Transport, sb.NsPerElement, sb.ElementsPerSec, sb.AllocsPerElement)
	if sb.SpeedupVsJSON > 0 {
		fmt.Fprintf(w, ", %.2fx JSON", sb.SpeedupVsJSON)
	}
	fmt.Fprintln(w)
}

// compareRow is one comparable cell of a report: a stable key, the
// row's ns/element and the sizes it was measured at (batch is 0 for rows
// without one). Keys are chosen so the same measurement matches across
// schema generations: older reports' stream rows key by codec and
// transport alone, and the first of them (their single-connection row)
// is the one compared.
type compareRow struct {
	key             string
	ns              float64
	elements, batch int
}

// reportRows flattens a report into keyed ns/element rows, in display
// order.
func reportRows(rep Report) []compareRow {
	rows := []compareRow{
		{"decide/kernel", rep.Decide.KernelNsPerElement, rep.Decide.Elements, 0},
		{"serial", rep.Serial.NsPerElement, rep.Serial.Elements, 0},
	}
	for _, sb := range rep.Engine {
		rows = append(rows, compareRow{fmt.Sprintf("engine/shards=%d", sb.Shards), sb.NsPerElement, sb.Elements, 0})
	}
	if rep.EngineTelemetry.Elements > 0 {
		rows = append(rows, compareRow{"engine/telemetry", rep.EngineTelemetry.NsPerElement, rep.EngineTelemetry.Elements, 0})
	}
	for _, pb := range rep.Policies {
		rows = append(rows, compareRow{fmt.Sprintf("policy/%s/%s", pb.Policy, pb.Workload), pb.NsPerElement, pb.Elements, 0})
	}
	for _, sb := range rep.Service {
		rows = append(rows, compareRow{fmt.Sprintf("service/%s/%s", sb.Codec, sb.Transport), sb.NsPerElement, sb.Elements, sb.Batch})
	}
	for _, cb := range rep.Cluster {
		rows = append(rows, compareRow{fmt.Sprintf("cluster/nodes=%d", cb.Nodes), cb.NsPerElement, cb.Elements, cb.Batch})
	}
	return rows
}

func readReport(path string) (Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports is the -compare arm: per-row ns/element deltas between
// two report files, new rows and vanished rows called out, and a
// nonzero exit when any row shared by both reports slows down by more
// than threshold (a fraction: 0.25 = 25%). Speedups and new rows never
// fail — the gate is one-sided, a regression detector, not a diff. It
// compares like with like only: reports whose quick or gomaxprocs
// differ, or a shared row measured at other elements or batch, fail
// naming the field instead of printing deltas.
func compareReports(oldPath, newPath string, threshold float64, w io.Writer) error {
	if threshold < 0 {
		return fmt.Errorf("regress threshold must be >= 0, got %v", threshold)
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "comparing %s (%s) -> %s (%s), regression threshold %.0f%%\n",
		oldPath, oldRep.Bench, newPath, newRep.Bench, threshold*100)
	if oldRep.Quick != newRep.Quick {
		return fmt.Errorf("reports not comparable: quick %v -> %v", oldRep.Quick, newRep.Quick)
	}
	if oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		return fmt.Errorf("reports not comparable: gomaxprocs %d -> %d", oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}

	oldRows := reportRows(oldRep)
	oldByKey := make(map[string]compareRow, len(oldRows))
	for _, r := range oldRows {
		// First row of a key wins: BENCH_6's striped and copy-decode
		// stream rows key like its conns=1 row, which comes first.
		if _, dup := oldByKey[r.key]; !dup {
			oldByKey[r.key] = r
		}
	}
	newRows := reportRows(newRep)
	var mismatches []string
	for _, r := range newRows {
		o, ok := oldByKey[r.key]
		if ok && o.elements != r.elements {
			mismatches = append(mismatches, fmt.Sprintf("%s: elements %d -> %d", r.key, o.elements, r.elements))
		}
		if ok && o.batch != r.batch {
			mismatches = append(mismatches, fmt.Sprintf("%s: batch %d -> %d", r.key, o.batch, r.batch))
		}
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("rows not comparable:\n  %s", strings.Join(mismatches, "\n  "))
	}

	newKeys := make(map[string]bool)
	var regressions []string
	for _, r := range newRows {
		newKeys[r.key] = true
		o, ok := oldByKey[r.key]
		if !ok {
			fmt.Fprintf(w, "%-40s %31s %10.1f ns/el\n", r.key, "(new row)", r.ns)
			continue
		}
		old := o.ns
		delta := 0.0
		if old > 0 {
			delta = (r.ns - old) / old
		}
		mark := ""
		if old > 0 && r.ns > old*(1+threshold) {
			mark = "  REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %.1f -> %.1f ns/el (%+.1f%%)", r.key, old, r.ns, delta*100))
		}
		fmt.Fprintf(w, "%-40s %10.1f -> %10.1f ns/el  %+6.1f%%%s\n", r.key, old, r.ns, delta*100, mark)
	}
	for _, r := range oldRows {
		if !newKeys[r.key] {
			fmt.Fprintf(w, "%-40s %31s\n", r.key, "(row absent from new report)")
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d row(s) regressed past %.0f%%:\n  %s",
			len(regressions), threshold*100, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "no row regressed past %.0f%%\n", threshold*100)
	return nil
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// benchDecide times the selection kernel — the randpr policy state's
// Decide — on the matrix workload the engine rows replay — loads above
// the capacity-4 link, so selection always trims — and the sort-based
// reference on the identical sample and priorities, so the kernel row is
// the floor under the engine rows.
func benchDecide(inst *setsystem.Instance, reps int, seed int64) DecideBench {
	info := core.InfoOf(inst)
	st, err := core.RandPrPolicy{}.Setup(info, uint64(seed))
	if err != nil {
		panic(err)
	}
	prio := core.HashPriorities(info, hashpr.Mixer{Seed: uint64(seed)}, nil)
	elems := inst.Elements
	var totalLoad int
	for _, el := range elems {
		totalLoad += len(el.Members)
	}

	buf := make([]setsystem.SetID, 0, 64)
	kernelNs := timeBest(reps, func() {
		for _, el := range elems {
			buf = st.Decide(el.Members, el.Capacity, buf)
		}
	})
	sortNs := timeBest(reps, func() {
		for _, el := range elems {
			buf = core.SelectTopPrioritySort(el.Members, el.Capacity, prio, buf)
		}
	})

	allocs := allocsDuring(3, func() {
		for _, el := range elems {
			buf = st.Decide(el.Members, el.Capacity, buf)
		}
	})

	return DecideBench{
		Elements:           len(elems),
		MeanLoad:           float64(totalLoad) / float64(len(elems)),
		CapacityMax:        4,
		KernelNsPerElement: float64(kernelNs) / float64(len(elems)),
		SortNsPerElement:   float64(sortNs) / float64(len(elems)),
		Speedup:            float64(sortNs) / float64(kernelNs),
		AllocsPerElement:   float64(allocs) / float64(len(elems)),
	}
}

// benchSerial times core.Run with HashRandPr — the single-threaded
// reference the engine matrix is compared against.
func benchSerial(inst *setsystem.Instance, reps int, seed int64) SerialBench {
	ns := timeBest(reps, func() {
		alg := &core.HashRandPr{Hasher: hashpr.Mixer{Seed: uint64(seed)}}
		if _, err := core.Run(inst, alg, nil); err != nil {
			panic(err)
		}
	})
	return SerialBench{
		Elements:     inst.NumElements(),
		NsPerElement: float64(ns) / float64(inst.NumElements()),
	}
}

// benchEngine times a full engine replay at the given shard count and
// measures steady-state ingestion allocations on a persistent engine.
func benchEngine(inst *setsystem.Instance, shards, reps int, seed int64) (ShardBench, error) {
	ns, allocs, err := benchEngineConfig(inst,
		engine.Config{Shards: shards, BatchSize: 128, QueueDepth: 8}, nil, reps, seed)
	if err != nil {
		return ShardBench{}, err
	}
	n := inst.NumElements()
	return ShardBench{
		Shards:           shards,
		Elements:         n,
		NsPerElement:     float64(ns) / float64(n),
		ElementsPerSec:   float64(n) / (float64(ns) * 1e-9),
		AllocsPerElement: float64(allocs) / float64(n),
	}, nil
}

// benchPolicy streams one workload through the engine under one
// registered policy: replay timing, the steady-state allocation probe,
// and the mean serial-oracle benefit over a few seeds.
func benchPolicy(inst *setsystem.Instance, workloadName, name string, reps int, seed int64) (PolicyBench, error) {
	const policyShards = 4
	cfg := engine.Config{Shards: policyShards, BatchSize: 128, QueueDepth: 8, Policy: name}
	ns, allocs, err := benchEngineConfig(inst, cfg, nil, reps, seed)
	if err != nil {
		return PolicyBench{}, err
	}

	pol, err := core.LookupPolicy(name)
	if err != nil {
		return PolicyBench{}, err
	}
	const trials = 5
	var benefit float64
	for t := 0; t < trials; t++ {
		res, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: uint64(seed) + uint64(t)}, nil)
		if err != nil {
			return PolicyBench{}, err
		}
		benefit += res.Benefit
	}

	n := inst.NumElements()
	return PolicyBench{
		Policy:           name,
		Workload:         workloadName,
		Shards:           policyShards,
		Elements:         n,
		NsPerElement:     float64(ns) / float64(n),
		ElementsPerSec:   float64(n) / (float64(ns) * 1e-9),
		AllocsPerElement: float64(allocs) / float64(n),
		MeanBenefit:      benefit / trials,
	}, nil
}

// benchEngineTelemetry is the telemetry-enabled engine row: the shards=4
// configuration with a sampled decision log (drainer flushing every
// millisecond into a discarding log) and queue-wait/decide histograms
// attached — the exact instrumentation ospserve wires up. Its
// allocs/element must stay 0: sampling copies members into a
// preallocated shard scratch buffer and records into preallocated
// rings, so telemetry never touches the allocator on the hot path
// (DESIGN.md §13).
func benchEngineTelemetry(inst *setsystem.Instance, reps int, seed int64) (ShardBench, error) {
	const shards = 4
	dlog := obs.NewDecisionLog(obs.DecisionLogConfig{
		SampleEvery: 64, RingSize: 1024, FlushEvery: time.Millisecond,
	})
	defer dlog.Close()
	pol, err := core.LookupPolicy(core.DefaultPolicy)
	if err != nil {
		return ShardBench{}, err
	}
	var qwait, decide obs.Histogram
	cfg := engine.Config{
		Shards: shards, BatchSize: 128, QueueDepth: 8,
		Telemetry: &obs.EngineTelemetry{
			Decisions: dlog.Logger("bench", pol.Name(), shards),
			QueueWait: &qwait,
			Decide:    &decide,
		},
	}
	ns, allocs, err := benchEngineConfig(inst, cfg, pol, reps, seed)
	if err != nil {
		return ShardBench{}, err
	}
	n := inst.NumElements()
	return ShardBench{
		Shards:           shards,
		Elements:         n,
		NsPerElement:     float64(ns) / float64(n),
		ElementsPerSec:   float64(n) / (float64(ns) * 1e-9),
		AllocsPerElement: float64(allocs) / float64(n),
	}, nil
}

// benchEngineConfig is the shared measurement body: best-of replay wall
// time plus the steady-state allocation probe on a persistent engine.
// A non-nil pol overrides cfg.Policy (the interface-dispatch row).
func benchEngineConfig(inst *setsystem.Instance, cfg engine.Config, pol core.Policy, reps int, seed int64) (ns int64, allocs uint64, err error) {
	if pol == nil {
		if pol, err = core.LookupPolicy(cfg.Policy); err != nil {
			return 0, 0, err
		}
	}
	var replayErr error
	ns = timeBest(reps, func() {
		if replayErr != nil {
			return
		}
		if _, err := engine.ReplayWithPolicy(inst, pol, uint64(seed), cfg); err != nil {
			replayErr = err
		}
	})
	if replayErr != nil {
		return 0, 0, replayErr
	}

	// Steady-state allocation probe: warm a persistent engine past its
	// high-water mark, then count mallocs over a second full pass.
	e, err := engine.NewWithPolicy(core.InfoOf(inst), pol, uint64(seed), cfg)
	if err != nil {
		return 0, 0, err
	}
	submitAll := func() {
		for _, el := range inst.Elements {
			if err := e.Submit(el); err != nil {
				panic(err)
			}
		}
	}
	submitAll() // warm-up pass grows every buffer
	allocs = allocsDuring(5, submitAll)
	if _, err := e.Drain(); err != nil {
		return 0, 0, err
	}
	return ns, allocs, nil
}

// benchService measures one service row: an embedded admission server
// on a loopback listener, the real osp/client, the matrix workload in
// fixed batches. Under CodecJSON each batch is one keep-alive request;
// under CodecBinary the batches go out as frames pipelined 8 deep over
// one verdict stream (upgraded from the same listener) and verdicts
// come back as in-order frames decoded in place — no request envelope,
// no response materialization. Each timed pass registers a fresh
// instance, ingests everything, drains and removes it, so both rows pay
// registration and drain alike; the drained result of the first pass
// is verified bit-for-bit against the serial randpr oracle.
func benchService(inst *setsystem.Instance, codec client.Codec, batch, reps int, seed int64) (ServiceBench, error) {
	srv := osp.NewServer(osp.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServiceBench{}, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // closed below
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)  //nolint:errcheck
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	// Pin the HTTP client's connection reuse so the rows are comparable
	// run to run: one warm keep-alive connection, no compression — the
	// best case HTTP can put up.
	c, err := client.New("http://"+ln.Addr().String(), client.WithCodec(codec),
		client.WithHTTPClient(&http.Client{Transport: &http.Transport{
			MaxIdleConns:        4,
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		}}))
	if err != nil {
		return ServiceBench{}, err
	}
	ctx := context.Background()
	ingestJSON := func(h *client.Instance) error {
		for off := 0; off < len(inst.Elements); off += batch {
			if _, err := h.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))]); err != nil {
				return err
			}
		}
		return nil
	}
	discard := func(int, []osp.SetID) {}
	ingestStream := func(h *client.Instance) error {
		st, err := h.OpenStream(ctx)
		if err != nil {
			return err
		}
		defer st.Close()
		depth := min(8, st.Window())
		for off := 0; off < len(inst.Elements); off += batch {
			if st.Outstanding() == depth {
				if err := st.Recv(discard); err != nil {
					return err
				}
			}
			if err := st.Send(inst.Elements[off:min(off+batch, len(inst.Elements))]); err != nil {
				return err
			}
		}
		if err := st.CloseSend(); err != nil {
			return err
		}
		for {
			if err := st.Recv(discard); err == io.EOF {
				return st.Close()
			} else if err != nil {
				return err
			}
		}
	}
	ingest, transport := ingestStream, "stream"
	if codec == client.CodecJSON {
		ingest, transport = ingestJSON, "http"
	}
	pass := func() (*core.Result, error) {
		h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: uint64(seed)})
		if err != nil {
			return nil, err
		}
		if err := ingest(h); err != nil {
			return nil, err
		}
		res, err := h.Drain(ctx)
		if err != nil {
			return nil, err
		}
		return res, h.Remove(ctx)
	}

	// Correctness first: one verified pass before any timing.
	res, err := pass()
	if err != nil {
		return ServiceBench{}, err
	}
	serial, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: uint64(seed)}}, nil)
	if err != nil {
		return ServiceBench{}, err
	}
	if !res.Equal(serial) {
		return ServiceBench{}, fmt.Errorf("service codec=%s: drained result differs from the serial oracle", codec)
	}

	var passErr error
	ns := timeBest(reps, func() {
		if passErr != nil {
			return
		}
		_, passErr = pass()
	})
	if passErr != nil {
		return ServiceBench{}, passErr
	}
	allocs := allocsDuring(2, func() {
		if passErr == nil {
			_, passErr = pass()
		}
	})
	if passErr != nil {
		return ServiceBench{}, passErr
	}

	n := inst.NumElements()
	return ServiceBench{
		Codec:            codec.String(),
		Transport:        transport,
		Elements:         n,
		Batch:            batch,
		NsPerElement:     float64(ns) / float64(n),
		ElementsPerSec:   float64(n) / (float64(ns) * 1e-9),
		AllocsPerElement: float64(allocs) / float64(n),
	}, nil
}

// benchCluster measures one cluster scaling row: N embedded nodes, a
// coordinator fanning the matrix workload across them by element hash
// (stream transport per node), merged on drain. Each pass builds a
// fresh coordinator over the same fleet and registers a fresh fan-out
// instance; the first pass's merged drain is verified bit-for-bit
// against the serial oracle before any timing — scale must not change
// a verdict.
func benchCluster(inst *setsystem.Instance, nodes, batch, reps int, seed int64) (ClusterBench, error) {
	fleet := make([]cluster.Node, nodes)
	locals := make([]*cluster.LocalNode, nodes)
	for i := range fleet {
		ln, err := cluster.StartLocalNode(osp.ServerConfig{})
		if err != nil {
			return ClusterBench{}, err
		}
		locals[i] = ln
		fleet[i] = ln.Config()
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, ln := range locals {
			ln.Shutdown(ctx) //nolint:errcheck
		}
	}()

	ctx := context.Background()
	pass := func() (*core.Result, error) {
		co, err := cluster.New(cluster.Config{Nodes: fleet})
		if err != nil {
			return nil, err
		}
		defer co.Close() //nolint:errcheck
		in, err := co.Register(ctx, cluster.Spec{
			Info: osp.InfoOf(inst), Seed: uint64(seed), FanOut: true,
		})
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(inst.Elements); off += batch {
			end := min(off+batch, len(inst.Elements))
			if err := in.Ingest(ctx, inst.Elements[off:end], nil); err != nil {
				return nil, err
			}
		}
		return in.Drain(ctx)
	}

	// Correctness first: one verified pass before any timing.
	res, err := pass()
	if err != nil {
		return ClusterBench{}, err
	}
	serial, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: uint64(seed)}}, nil)
	if err != nil {
		return ClusterBench{}, err
	}
	if !res.Equal(serial) {
		return ClusterBench{}, fmt.Errorf("cluster nodes=%d: merged drain differs from the serial oracle", nodes)
	}

	var passErr error
	ns := timeBest(reps, func() {
		if passErr != nil {
			return
		}
		_, passErr = pass()
	})
	if passErr != nil {
		return ClusterBench{}, passErr
	}

	n := inst.NumElements()
	return ClusterBench{
		Nodes:          nodes,
		Elements:       n,
		Batch:          batch,
		NsPerElement:   float64(ns) / float64(n),
		ElementsPerSec: float64(n) / (float64(ns) * 1e-9),
	}, nil
}

// timeBest runs f reps times and returns the fastest wall time in
// nanoseconds — best-of filtering strips scheduler noise.
func timeBest(reps int, f func()) int64 {
	if reps < 1 {
		reps = 1
	}
	best := int64(-1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		if d := time.Since(start).Nanoseconds(); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// allocsDuring returns the minimum number of heap allocations (across all
// goroutines) observed over passes runs of f. The minimum is the sound
// regression detector: stray runtime-internal allocations (GC work
// buffers, parked-goroutine bookkeeping) land in some passes but not all,
// while a genuine per-element allocation shows in every pass.
func allocsDuring(passes int, f func()) uint64 {
	var min uint64
	for p := 0; p < passes; p++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; p == 0 || d < min {
			min = d
		}
		if min == 0 {
			break
		}
	}
	return min
}
