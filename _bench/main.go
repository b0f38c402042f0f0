// Command phxbench is the repository's end-to-end benchmark. It drives four
// workloads through the public APIs of recovery, apps/kvstore, apps/lsmdb,
// shard and workload, checks the outputs, and prints every metric by name
// and unit; the last line of standard output is one JSON object.
//
//	bash _bench/run.sh --workload kv-serve --seed 1 --seconds 12 --trace 0
//	bash _bench/run.sh --workload all --seed 1 --trace 1 --trace-out t.json
//	bash _bench/run.sh --workload kv-recover --repeat 10
//	bash _bench/run.sh --workload kv-recover --repeat 10 --vary-seed
//
// An untraced run reports the end-to-end metrics; a traced run (--trace 1)
// reports the per-layer ones. README.md defines every metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type workloadDef struct {
	name string
	run  func(config) (*result, error)
}

var workloads = []workloadDef{
	{"kv-serve", runServe},
	{"kv-recover", runRecover},
	{"kv-snapshot", runSnapshot},
	{"shard-churn", runChurn},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "kv-serve, kv-recover, kv-snapshot, shard-churn, or all")
	seed := fs.Int64("seed", 1, "seed every input generator is derived from")
	seconds := fs.Int("seconds", 12, "measured work, sized to take about this many seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON here")
	repeat := fs.Int("repeat", 0, "run K times in child processes, all with -seed, and print each metric's spread")
	varySeed := fs.Bool("vary-seed", false, "with -repeat, give the K runs seeds seed..seed+K-1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "phxbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "phxbench: -seconds must be at least 1")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "phxbench: unknown workload %q\n", *name)
		return 2
	}
	if err := checkPinned(); err != nil {
		fmt.Fprintln(stderr, "phxbench:", err)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(selected, *seed, *varySeed, *seconds, *trace, *repeat, stdout, stderr)
	}

	fmt.Fprintln(stdout, header())
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	origin := time.Now()
	out := summary{Correct: true, Metrics: map[string]metricValue{}}
	var traces []*recorder
	for _, w := range selected {
		c := config{seed: *seed, seconds: *seconds, shape: fullShape}
		if *trace == 1 {
			c.rec = newRecorder(origin, 0)
			traces = append(traces, c.rec)
		}
		res, err := w.run(c)
		if err != nil {
			fmt.Fprintf(stderr, "phxbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s  seed=%d seconds=%d trace=%d attempted=%d failed=%d\n", w.name, *seed, *seconds, *trace, res.attempted, res.failed)
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", p)
		}
		for _, d := range defs {
			fmt.Fprintf(stdout, "  %-36s %16.6g %-6s %s\n", d.Name, res.values[d.Name], d.Unit, d.Kind)
			key := d.Name
			if len(selected) > 1 {
				key = w.name + "." + d.Name
			}
			out.Metrics[key] = metricValue{Value: res.values[d.Name], Unit: d.Unit}
		}
		out.Correct = out.Correct && res.correct()
		out.Attempted += res.attempted
		out.Failed += res.failed
	}
	if *traceOut != "" && len(traces) > 0 {
		all := newRecorder(origin, 0)
		for _, t := range traces {
			all.spans = append(all.spans, t.spans...)
		}
		if err := all.writeChrome(*traceOut); err != nil {
			fmt.Fprintln(stderr, "phxbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "phxbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func header() string {
	return fmt.Sprintf("# phxbench %s nproc=%d GOMAXPROCS=%d cpu=%q", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repeatRuns runs each workload k times as a child process of this binary and
// prints per metric the median, the quartiles (Python's statistics.quantiles,
// exclusive method), the interquartile range as a share of the median, and
// the min/max spread, and marks a metric that read the same in every run.
// The runs share one seed, so their spread is the host's, and modelled
// metrics must read the same; with varySeed they take seeds seed..seed+k-1,
// so the spread also carries the inputs' variation.
func repeatRuns(selected []workloadDef, seed int64, varySeed bool, seconds, trace, k int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "phxbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, header())
	status := 0
	for _, w := range selected {
		values := map[string][]float64{}
		units := map[string]string{}
		last := seed
		for i := 0; i < k; i++ {
			s := seed
			if varySeed {
				s += int64(i)
				last = s
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
			var sum summary
			if jerr := json.Unmarshal(lines[len(lines)-1], &sum); jerr != nil || err != nil || !sum.Correct {
				fmt.Fprintf(stderr, "phxbench: %s seed %d: run failed (%v)\n", w.name, s, err)
				status = 1
				continue
			}
			for n, m := range sum.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		fmt.Fprintf(stdout, "\n%s  runs=%d seeds=%d..%d seconds=%d trace=%d\n", w.name, k, seed, last, seconds, trace)
		fmt.Fprintf(stdout, "  %-36s %14s %14s %14s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := values[n]
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := percentile(xs, 0), percentile(xs, 1)
			same := ""
			if lo == hi {
				same = "  identical"
			}
			fmt.Fprintf(stdout, "  %-36s %14.6g %14.6g %14.6g %9.4f %9.4f %s%s\n", n, med, q1, q3, share(q3-q1, med), share(hi-lo, med), units[n], same)
		}
	}
	return status
}

func share(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return x / of
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is how the spread of a benchmark metric is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
