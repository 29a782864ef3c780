// Command perfbench is the repository benchmark.  It runs one workload for
// a fixed time, checks every output against the serial oracle, and prints
// the metrics that BENCHMARK.json declares, as its last line of output, in
// one JSON object:
//
//	bash perfbench/run.sh --workload icesheet-p16 --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off: whole public calls timed between barriers, in the paper's unit of
// seconds per million octants per rank.  With --trace 1 it
// prints the per-layer metrics: it repeats the untraced loop, then runs
// again with the program's tracer attached, calls layer entry points alone
// on the same forests, and writes a Perfetto trace and a self-time table
// under .bench_build/trace/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const buildDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "measurement time of one loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	s := lookup(*name)
	if s == nil || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --trace 0|1, --seconds > 0\n", strings.Join(decl.workloadNames(), ", "))
		return 2
	}
	// Simulated ranks are goroutines; never use more threads than CPUs.
	s.workers = min(s.workers, runtime.NumCPU())
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := &result{metrics: metricSet{}}
	if err := checkNotIgnored("."); err != nil {
		r.fail("git-ignore guard: %v", err)
	}
	if err := plantedFaultCheck(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := newBench(s, *seed, filepath.Join(buildDir, "sock"))
	if err := measure(b, r, time.Duration(*secs*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("failed_frac: %d/%d iterations and layer calls failed their checks\n", r.failed, r.attempted)
	want := decl.EndToEnd
	if *trace == 1 {
		want = decl.PerLayer
	}
	line, err := r.json(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// declaration is the part of BENCHMARK.json the benchmark reads: the
// metric names and units it must print.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range d.Workloads {
		if lookup(w.Name) == nil {
			return nil, fmt.Errorf("%s declares workload %q, which the benchmark does not define", path, w.Name)
		}
	}
	return &d, nil
}

func (d *declaration) workloadNames() []string {
	var out []string
	for _, w := range d.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// metricSet maps metric names to measured values.
type metricSet map[string]float64

// result is what one run reports.
type result struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string
	// pending are the checks that need the oracle's golden values, which
	// are loaded only after every measurement so the oracle's memory
	// churn cannot slow a timed call.
	pending []func(golden []goldenStep) error
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count records one checked attempt.
func (r *result) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("%v", err)
	}
}

// expect records an attempt to be checked against the golden values.
func (r *result) expect(check func(golden []goldenStep) error) {
	r.pending = append(r.pending, check)
}

// settle runs the pending checks.
func (r *result) settle(golden []goldenStep) {
	for _, check := range r.pending {
		r.count(check(golden))
	}
	r.pending = nil
}

// json renders the final line: exactly the declared metrics, each with its
// unit.  A declared metric the run did not measure is a benchmark bug.
func (r *result) json(want []metricDecl) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	var missing []string
	for _, d := range want {
		v, ok := r.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		return "", errors.New("declared metrics not measured: " + strings.Join(missing, ", "))
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	return string(out), err
}
