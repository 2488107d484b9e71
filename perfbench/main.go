// Command perfbench is the repository's end-to-end benchmark. It spawns
// cmd/ospserve as separate processes (two for the cluster workload),
// drives them through osp/client and internal/cluster on one of two
// named closed-loop workloads, checks every drained Result against the
// serial oracle, and prints the end-to-end metrics. With -trace 1 it
// instead runs the workload twice — untraced, then traced — and prints
// the per-layer ledger, the spans' self times and the tracing overhead.
// The last line of standard output is one JSON object; a run that fails
// any check exits 1 without it. README.md documents the workloads and
// every metric.
//
// From the repository root, run.sh builds ospserve and this program under
// .bench_build and runs it:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one closed-loop traffic mix with one batch in flight:
// the producer sends a batch and waits for its verdicts before sending
// the next.
type workload struct {
	gen       genConfig
	instances int // distinct generated instances, cycled over rounds
	batch     int // elements per batch
	nodes     int // ospserve processes; 2 = through a cluster.Coordinator
	// settle is a pause between registering and streaming, so the
	// server's collection of a large registration's garbage does not
	// land in the timed stream.
	settle time.Duration
}

// workloads are documented, with the reason for each, in README.md.
var workloads = map[string]*workload{
	"bulk": {
		gen:       genConfig{M: 1 << 18, N: 1 << 20, MinLoad: 8, MaxLoad: 8, Capacity: 2},
		instances: 2, batch: 4096, nodes: 1,
		settle: 100 * time.Millisecond,
	},
	"cluster": {
		gen:       genConfig{M: 1 << 16, N: 1 << 20, MinLoad: 8, MaxLoad: 8, Capacity: 2},
		instances: 2, batch: 4096, nodes: 2,
		settle: 20 * time.Millisecond,
	},
}

const (
	// warmup is the least time spent in untimed rounds before timing
	// starts; at least one round is always untimed.
	warmup = 500 * time.Millisecond
	// setupReps is how many set-ups an untraced run times.
	setupReps = 5
	// lives is how many fleets the timed rounds of an untraced run are
	// spread over.
	lives = 8
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		killChildren()
		os.Exit(1)
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	defer killChildren()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "bulk or cluster")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 40, "timed seconds per run (split in half between the two phases of a traced run)")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and tracing overhead")
		bin     = fs.String("server", ".bench_build/bin/ospserve", "ospserve binary")
		outDir  = fs.String("out", ".bench_build/perfbench", "directory for span files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want bulk or cluster)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	ctx := context.Background()
	// The benchmark is one producer: holding it to one processor leaves
	// the rest of the host to the servers under test, and keeps its own
	// garbage collector from competing with them for a second core.
	procs := runtime.GOMAXPROCS(1)
	calib := calibrate()
	fmt.Fprintf(stdout, "workload %s, seed %d, host.calib_ms %.3f\n", *name, *seed, calib)

	ins, err := makeInputs(w, *seed)
	if err != nil {
		return err
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 0 {
		r, err := runPhase(ctx, w, ins, *bin, budget, setupReps, nil)
		if err != nil {
			return err
		}
		e2e := r.endToEnd()
		printTable(stdout, "end-to-end", e2e)
		return emit(stdout, r.attempted, e2e)
	}

	// Traced run: the same inputs untraced, then traced, on fresh servers.
	plain, err := runPhase(ctx, w, ins, *bin, budget/2, 1, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced, err := runPhase(ctx, w, ins, *bin, budget/2, 1, rec)
	if err != nil {
		return err
	}
	// The in-process probes run the engine at the servers' shard count.
	runtime.GOMAXPROCS(procs)
	ls, err := probeLayers(ins, traced.shards)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	if err := writeSpans(path, rec); err != nil {
		return err
	}
	pe, te := plain.endToEnd(), traced.endToEnd()
	printTable(stdout, "end-to-end, untraced phase", pe)
	printTable(stdout, "end-to-end, traced phase", te)
	// The tracing overhead is the traced phase's loss on throughput, as a
	// share of the untraced phase's.
	overhead := 1 - te["ingest_eps"].Value/pe["ingest_eps"].Value
	layers, extra, err := traced.perLayer(rec, ls, calib, overhead)
	if err != nil {
		return err
	}
	printTable(stdout, "per-layer", layers)
	printTable(stdout, "per-layer, this workload only", extra)
	printSelfTimes(stdout, rec)
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rec.spans), path)
	return emit(stdout, plain.attempted+traced.attempted, layers)
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // printed in the table only: sample count and source
}

type metrics map[string]metric

// emit prints the result object as the last line of stdout. Any
// correctness failure has already returned an error, so a printed result
// is always correct and has no failed batch.
func emit(w io.Writer, attempted int, m metrics) error {
	raw, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{true, attempted, 0, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
