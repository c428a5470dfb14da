// Command vzbench is the repository's end-to-end benchmark: it builds
// cmd/vzserve, runs it as a child process on loopback with empty state,
// drives seeded HTTP and UDP load at it from this single process, checks
// every response against in-process oracles, and reports end-to-end
// metrics (untraced run) and per-layer metrics (traced run, counters and
// spans scraped from outside plus in-process timings). See README.md.
//
//	vzbench [-seed N] [-seconds S] [-out results.jsonl]
//	vzbench -workload NAME -seed N -seconds S -trace 0|1
//	vzbench -compare A.jsonl B.jsonl
//
// With no -workload it runs all four workloads, untraced and traced,
// and prints every metric. With -workload it runs one and prints, as
// its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}, the end-to-end metrics with -trace 0 and the per-layer
// metrics with -trace 1. It exits 1 if any response was wrong or any
// operation failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"vzlens/internal/world"
)

// defaultSeconds is the measured window BENCHMARK.json's run_seconds
// declares.
const defaultSeconds = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vzbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (holds go.mod and cmd/vzserve)")
	work := fs.String("work", "", "scratch directory for server state and logs (default <root>/.bench_build/work)")
	wl := fs.String("workload", "", "run one workload: query_mix, dns_mix, whatif or mixed_sweep (default: all)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "length of each measured window")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
	out := fs.String("out", "", "append each run's result as a JSON line to this file")
	compare := fs.Bool("compare", false, "compare two result files: vzbench -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vzbench: -compare needs two result files")
			return 2
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *wl != "" && !slices.Contains(workloads, *wl) {
		fmt.Fprintf(os.Stderr, "vzbench: unknown workload %q (want one of %v)\n", *wl, workloads)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "vzbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	// One process, at most nproc threads: the generator must not take
	// more of the machine than the reference box's two CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	b, err := setup(*root, *work, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
		return 2
	}
	type job struct {
		workload string
		traced   bool
	}
	jobs := []job{{*wl, *trace == 1}}
	if *wl == "" {
		jobs = nil
		for _, name := range workloads {
			jobs = append(jobs, job{name, false}, job{name, true})
		}
	}
	code := 0
	for _, j := range jobs {
		r, err := b.run(j.workload, *seed, j.traced)
		if err != nil {
			// The work directory stays behind with the server logs.
			fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
			return 1
		}
		printResult(stdout, r)
		if err := appendResults(*out, r); err != nil {
			fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
			return 1
		}
		if *wl != "" {
			printContract(stdout, r)
		}
		code = max(code, exitCode(r))
	}
	if err := os.RemoveAll(b.work); err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
	}
	return code
}

// setup builds the server and the oracles' world.
func setup(root, work string, length time.Duration) (*bench, error) {
	if work == "" {
		work = filepath.Join(root, ".bench_build", "work")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(work, "vzbench-")
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(root, work)
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	// The oracles answer from the world vzserve -quick builds. Timing
	// the build here is the world layer's in-process number.
	t := time.Now()
	w, err := world.Build(world.Config{Step: 3})
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return &bench{bin: bin, work: work, warmup: warmup, length: length, w: w, worldBuild: time.Since(t)}, nil
}

func exitCode(r *result) int {
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// defs is the metric list a run reports.
func defs(r *result) []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// printResult writes one line per metric, by name with its unit.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d %s inputs_sha256=%s attempted=%d failed=%d\n",
		r.Workload, r.Seed, kind, r.Inputs, r.Attempted, r.Failed)
	for _, d := range defs(r) {
		line := fmt.Sprintf("%-12s %-26s %14.4f %s", r.Workload, d.name, r.Metrics[d.name], d.unit)
		if d.moves != "" {
			line = fmt.Sprintf("%-62s -> %s", line, d.moves)
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-12s problem: %s\n", r.Workload, p)
	}
}

// printContract writes the single-line JSON result.
func printContract(w io.Writer, r *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs(r) {
		metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	doc, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	fmt.Fprintln(w, string(doc))
}

// appendResults appends r to path as one JSON line (no-op without a
// path).
func appendResults(path string, r *result) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	doc, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	_, err = f.Write(append(doc, '\n'))
	return errors.Join(err, f.Close())
}
