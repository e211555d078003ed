// Command perfbench is Marion's benchmark: the paper's Table 3/4 matrix
// compiled in-process (batch-livermore), and the mariond compile
// service answering from a warm cache (serve-warm). It checks every
// output, then prints one JSON result
// line: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1. See README.md; run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"funcs_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"sim_cycles", "count"},
	{"code_insts", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"maril.busy_s", "s"},
	{"cc.busy_s", "s"},
	{"ilgen.busy_s", "s"},
	{"iltext.busy_s", "s"},
	{"xform.busy_s", "s"},
	{"sel.busy_s", "s"},
	{"sel.tried", "count"},
	{"sel.memo_hit_ratio", "ratio"},
	{"strategy.busy_s", "s"},
	{"strategy.alloc_rounds", "count"},
	{"strategy.spills", "count"},
	{"strategy.sched_passes", "count"},
	{"regalloc.busy_s", "s"},
	{"sched.busy_s", "s"},
	{"verify.busy_s", "s"},
	{"cache.hit_ratio", "ratio"},
	{"cache.stores", "count"},
	{"cache.hit_busy_s", "s"},
	{"asm.print_busy_s", "s"},
	{"json.encode_busy_s", "s"},
	{"server.rtt_ms", "ms"},
	{"server.elapsed_ms", "ms"},
	{"server.http_json_ms", "ms"},
	{"overload.queue_ms", "ms"},
	{"runtime.alloc_bytes_per_func", "B"},
	{"runtime.gc_cycles", "count"},
	{"pipeline.overhead_s", "s"},
	{"sim.busy_s", "s"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(*env) (*outcome, error){
	"batch-livermore": runBatch,
	"serve-warm":      runServe,
}

// env is one run's settings.
type env struct {
	root, out, mariond string
	workload           string
	seed               uint64
	seconds            time.Duration
	trace              bool
}

// tracePath is where a traced run writes its span trees.
func (e *env) tracePath() string {
	return filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
}

// outcome collects what a workload measured and found.
type outcome struct {
	attempted, failed int64
	problems          []string       // correctness failures: the run is not correct
	nProblems         int            // all of them, problems keeps the first maxProblems
	apart             map[string]int // comparisons the known i860 fault spoils, by name
	e2e, layer        map[string]float64
	info              map[string]any // context printed beside the result
}

func newOutcome() *outcome {
	return &outcome{apart: map[string]int{}, e2e: map[string]float64{},
		layer: map[string]float64{}, info: map[string]any{}}
}

// maxProblems bounds how many correctness failures are kept verbatim.
const maxProblems = 20

func (o *outcome) problem(msg string) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, msg)
	}
	o.nProblems++
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout holding examples/c and BENCHMARK.json")
	out := fs.String("out", ".bench_build", "directory for traces and daemon files")
	mariond := fs.String("mariond", "", "non-race mariond binary (serve workloads)")
	workload := fs.String("workload", "", "batch-livermore or serve-warm")
	seed := fs.Uint64("seed", 1, "workload seed: request and compile order")
	seconds := fs.Float64("seconds", 30, "timed work per run, in seconds")
	traceOn := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if rest := fs.Args(); len(rest) > 0 {
		switch rest[0] {
		case "steady":
			return steady(rest[1:], *root, *out, *mariond)
		case "compare":
			return compare(rest[1:], *root)
		}
		fmt.Fprintln(os.Stderr, "perfbench: unexpected arguments:", rest)
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload batch-livermore|serve-warm, --seconds > 0, --trace 0|1")
		return 2
	}
	e := &env{root: *root, out: *out, mariond: *mariond, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceOn == 1}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o, err := wl(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := e.result(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	ctx, _ := json.Marshal(map[string]any{"context": e.context(o)})
	fmt.Println(string(ctx))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// result picks the metrics this mode prints; a metric the workload did
// not set is a bug in the benchmark, not a measurement.
func (e *env) result(o *outcome) (*result, error) {
	defs, vals := endToEnd, o.e2e
	if e.trace {
		defs, vals = perLayer, o.layer
	}
	r := &result{Correct: o.nProblems == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{}}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return r, nil
}

// context records what the result depends on besides the code.
func (e *env) context(o *outcome) map[string]any {
	c := map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.seconds.Seconds(), "trace": e.trace,
		"attempted": o.attempted, "failed": o.failed,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	for k, v := range o.info {
		c[k] = v
	}
	if o.nProblems > 0 {
		c["problems"], c["problems_total"] = o.problems, o.nProblems
	}
	if len(o.apart) > 0 {
		names := make([]string, 0, len(o.apart))
		for n := range o.apart {
			names = append(names, n)
		}
		sort.Strings(names)
		apart := make([]string, len(names))
		for i, n := range names {
			apart[i] = fmt.Sprintf("%s (x%d)", n, o.apart[n])
		}
		c["apart_i860_fault"] = apart
	}
	return c
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(l, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// cpuNow is the CPU time this process has used so far, on all its
// threads (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it does not count
// the time a shared host gives the CPU to other tenants (steal), nor
// the time the process waits to be scheduled.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	return readClock(clockProcessCPUTimeID)
}

// processCPU is the CPU time process pid has used so far, on all its
// threads: its process CPU clock, made as clock_getcpuclockid(3) makes
// it ((^pid << 3) | CPUCLOCK_SCHED).
func processCPU(pid int) time.Duration {
	const cpuclockSched = 2
	return readClock(uintptr(^pid)<<3 | cpuclockSched)
}

// hostTicks is what /proc/stat says of all this machine's CPUs, in
// clock ticks: how long they were busy, steal included, and how long
// the host ran something else while they had work (steal).
type hostTicks struct{ busy, steal uint64 }

// readHostTicks reads the machine's CPU totals; where /proc/stat cannot
// be read it returns zeros, and every steal share is then 0.
func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	user, nice, system, irq, softirq, steal := v[0], v[1], v[2], v[5], v[6], v[7]
	return hostTicks{busy: user + nice + system + irq + softirq + steal, steal: steal}
}

// stealShare is the share of the machine's busy CPU time between a and
// b that the host gave to others. It is reported beside the figures,
// not taken out of them: on the reference host the CPU clocks already
// leave steal out (a round with 14% steal ran at 93% of the CPU-time
// rate of rounds without).
func stealShare(a, b hostTicks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

func readClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%#x): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// selfPeakRSSMB is this process's peak resident set so far, in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// roundStat is one whole round of a workload's timed phase.
type roundStat struct {
	funcs int
	secs  float64   // CPU time of the round's work, s
	lats  []float64 // CPU time per operation, ms
	wall  float64   // wall time of the round's work, s
	steal float64   // stealShare over the round
}

// summarize stores the end-to-end timing metrics as medians over the
// rounds: functions per CPU second, and each round's p50 and p90
// latency, so a round of passing host contention moves none of them.
func summarize(o *outcome, rounds []roundStat) error {
	var rates, p50s, p90s, all, wallRates, steals []float64
	for _, r := range rounds {
		if r.wall > 0 {
			wallRates = append(wallRates, float64(r.funcs)/r.wall)
		}
		s := sortedCopy(r.lats)
		p50, _ := percentile(s, 0.50)
		p90, ok := percentile(s, 0.90)
		if !ok {
			return fmt.Errorf("a round of %d operations is too few for p90", len(s))
		}
		rate := float64(r.funcs) / r.secs
		rates, p50s, p90s = append(rates, rate), append(p50s, p50), append(p90s, p90)
		steals = append(steals, r.steal)
		all = append(all, r.lats...)
	}
	o.info["round_steal_share"] = steals
	o.e2e["funcs_per_s"], o.e2e["p50_ms"], o.e2e["p90_ms"] = median(rates), median(p50s), median(p90s)
	o.info["rounds"] = len(rounds)
	o.info["round_funcs_per_s"] = rates
	if len(wallRates) > 0 {
		o.info["round_funcs_per_wall_s"] = wallRates
	}
	o.info["latency_samples"] = len(all)
	if name, v := tail(sortedCopy(all)); name != "" {
		o.info["latency_tail_ms"] = map[string]float64{name: v}
	}
	return nil
}
