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
	"path/filepath"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// record is one run in a result set (a JSON-lines file).
type record struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Trace    int             `json:"trace"`
	Context  json.RawMessage `json:"context,omitempty"` // the run's context line
	result
}

// steady repeats one workload with consecutive seeds, appends every
// result to a JSON-lines file, and prints each metric's median,
// quartiles and spread (interquartile range over median).
func steady(args []string, root, out, mariond string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "runs, one seed each")
	seed := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Int("seconds", 0, "run length (0: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 repeats the traced run")
	file := fs.String("o", "", "JSON-lines file the results are appended to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	var w *os.File
	if *file != "" {
		if w, err = os.OpenFile(*file, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			return 1
		}
		defer w.Close()
	}
	var recs []record
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(i)
		cmd := exec.Command(self, "-root", root, "-out", out, "-mariond", mariond,
			"-workload", *workload, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n", s, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		rec := record{Workload: *workload, Seed: s, Trace: *trace}
		if len(lines) > 1 {
			var c struct {
				Context json.RawMessage `json:"context"`
			}
			if json.Unmarshal(lines[len(lines)-2], &c) == nil {
				rec.Context = c.Context
			}
		}
		if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n", s, err)
			return 1
		}
		recs = append(recs, rec)
		if w != nil {
			b, _ := json.Marshal(rec)
			if _, err := fmt.Fprintln(w, string(b)); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench steady:", err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d done\n", *workload, s)
	}
	printSummary(recs, spec)
	return 0
}

// printSummary prints, per metric, the median, quartiles and spread of
// a set of runs of one workload, with the bound where it has one.
func printSummary(recs []record, spec *benchSpec) {
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	vals := map[string][]float64{}
	fails := map[string]bool{}
	for _, r := range recs {
		for n, m := range r.Metrics {
			vals[n] = append(vals[n], m.Value)
		}
		if r.Attempted > 0 {
			fails[strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', -1, 64)] = true
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %14s %14s %14s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, n := range names {
		q := quartiles(vals[n])
		b := "-"
		if v, ok := bounds[n]; ok {
			b = strconv.FormatFloat(v, 'g', -1, 64)
		}
		fmt.Printf("%-30s %14.6g %14.6g %14.6g %8.2f%% %7s\n", n, q[0], q[1], q[2], 100*spread(vals[n]), b)
	}
	fmt.Printf("runs: %d; distinct failed/attempted shares: %d\n", len(recs), len(fails))
}

// compare reads two result sets (parent first) and judges every metric
// of every workload they share.
func compare(args []string, root string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare parent.jsonl change.jsonl")
		return 2
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	if compareSets(os.Stdout, spec, parent, change) {
		return 3 // an end-to-end metric got worse beyond its bound
	}
	return 0
}

// compareSets prints a verdict per (workload, metric) and reports
// whether any end-to-end metric got worse beyond its bound.
func compareSets(w io.Writer, spec *benchSpec, parent, change []record) bool {
	defs := map[string]specMetric{}
	for _, m := range spec.EndToEnd {
		defs[m.Name] = m
	}
	for _, m := range spec.PerLayer {
		m.Bound = 0
		defs[m.Name] = m
	}
	worse := false
	for _, wl := range spec.Workloads {
		for _, tr := range []int{0, 1} {
			p, c := series(parent, wl.Name, tr), series(change, wl.Name, tr)
			names := make([]string, 0, len(p))
			for n := range p {
				if _, ok := c[n]; ok {
					names = append(names, n)
				}
			}
			sort.Strings(names)
			for _, n := range names {
				d, ok := defs[n]
				if !ok {
					continue
				}
				v := compareMetric(p[n], c[n], d.Better == "higher", d.Bound)
				worse = worse || v.Worse
				fmt.Fprintf(w, "%-16s %-30s %s\n", wl.Name, n, v)
			}
		}
	}
	return worse
}

// series collects, in run order, each metric's values of one workload.
func series(recs []record, workload string, trace int) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		for n, m := range r.Metrics {
			out[n] = append(out[n], m.Value)
		}
	}
	return out
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
