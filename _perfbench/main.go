// Command perfbench is rrsched's end-to-end benchmark. It boots the real
// serving stack in-process behind loopback HTTP, drives one of four seeded
// closed-loop workloads for a fixed wall-clock window, checks every output
// against a bare stream.Scheduler replay of the same inputs, and prints a
// metric table followed, as the last line of standard output, by one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures of an untraced run;
// with --trace 1 they are the per-layer figures of a traced run (spans around
// every call into a layer, /metrics counter deltas, and post-run replays of
// the run's inputs through each inner layer). README.md defines every
// workload and metric.
//
// Run it from the repository root through run.sh, which builds this module
// first:
//
//	bash _perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
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
	"strconv"
)

// endToEnd and perLayer are the metrics the final JSON line carries, in the
// order BENCHMARK.json lists them. Every workload reports every one of them;
// workload-specific figures appear only in the printed table.
var (
	endToEnd = []string{
		"setup_s", "jobs_per_s", "round_ms_p50",
		"cpu_us_per_job", "peak_rss_mib", "cost_per_job",
	}
	perLayer = []string{
		"wire.bytes_per_job", "wire.encode_ns_per_job", "wire.decode_ns_per_job",
		"wire.coalesced_batch_mean",
		"shard.admit_us_mean", "shard.tick_ms_mean", "shard.resident_tenants",
		"stream.push_us_per_tenant_round", "stream.push_share_of_tick",
		"stream.snapshot_us_per_tenant", "stream.snapshot_bytes_per_tenant",
		"ckpt.put_us_p50", "ckpt.resolve_us_p50",
		"runtime.alloc_bytes_per_job", "runtime.gc_cpu_frac",
		"trace.round_covered_frac", "trace.overhead_frac",
	}
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errIncorrect marks a run whose outputs disagree with the replay: the
// result line is still printed (correct=false), then the exit code is 1.
var errIncorrect = errors.New("outputs disagree with the bare replay")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest, dense, paging or fleet")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for state dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want ingest, dense, paging or fleet)\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}

	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%s-%d", spec.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := newRunner(spec, *seed, *seconds, *trace == 1, dir)
	err = r.run()
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *trace == 1 {
		spanFile := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.json", spec.name, *seed))
		if werr := r.tr.writeFile(spanFile); werr != nil {
			fmt.Fprintln(stderr, "perfbench:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spanFile)
	}

	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	r.rep.print(stdout, r.header(), want)
	line, lerr := r.rep.resultLine(err == nil, r.ops.attempted, r.ops.failed, want)
	if lerr != nil {
		fmt.Fprintln(stderr, "perfbench:", lerr)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// header describes the run and the machine, so figures from different
// machines or seeds are never compared by accident.
func (r *runner) header() []string {
	return []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%v", r.spec.name, r.seed, int(r.window.Seconds()), r.traced),
		fmt.Sprintf("machine nproc=%d gomaxprocs=%d go=%s cpu=%s statefs=%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strconv.Quote(cpuModel()), fsType(r.dir)),
	}
}

// row is one printed metric: value with unit and the number of samples it
// summarizes; na rows name a figure this workload does not exercise.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	na      string
}

type report struct {
	rows  []row
	index map[string]int
}

func (p *report) add(name string, value float64, unit string, samples int) {
	p.set(row{name: name, value: value, unit: unit, samples: samples})
}

func (p *report) na(name, unit, why string) {
	p.set(row{name: name, unit: unit, na: why})
}

func (p *report) set(r row) {
	if p.index == nil {
		p.index = map[string]int{}
	}
	p.index[r.name] = len(p.rows)
	p.rows = append(p.rows, r)
}

func (p *report) print(w io.Writer, header []string, selected []string) {
	for _, h := range header {
		fmt.Fprintln(w, h)
	}
	sel := map[string]bool{}
	for _, n := range selected {
		sel[n] = true
	}
	fmt.Fprintf(w, "%-34s %16s  %-8s %8s\n", "metric", "value", "unit", "samples")
	for _, r := range p.rows {
		mark := " "
		if sel[r.name] {
			mark = "*"
		}
		if r.na != "" {
			fmt.Fprintf(w, "%s%-33s %16s  %-8s %8s  (%s)\n", mark, r.name, "n/a", r.unit, "-", r.na)
			continue
		}
		fmt.Fprintf(w, "%s%-33s %16.6g  %-8s %8d\n", mark, r.name, r.value, r.unit, r.samples)
	}
	fmt.Fprintln(w, "(* = in the result line)")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON object. Every selected metric must have
// been measured; a missing one is a benchmark defect, not a result.
func (p *report) resultLine(correct bool, attempted, failed int64, selected []string) (string, error) {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, name := range selected {
		i, ok := p.index[name]
		if !ok || p.rows[i].na != "" {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = metricValue{Value: p.rows[i].value, Unit: p.rows[i].unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
