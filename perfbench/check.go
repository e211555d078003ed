package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"marion/internal/asm"
	"marion/internal/core"
	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/sim"
	"marion/internal/targets"
)

// simLoops is the kern() repetition count every check runs: one pass
// of each kernel's loop nest, against Kernel.Ref(simLoops).
const simLoops = 1

// checkWorkers bounds the goroutines of the untimed check phases.
const checkWorkers = 2

// loadMachines parses and finalizes every shipped description with the
// public Maril front end (a fresh machine each call, unlike the cached
// targets.Load). It also returns the time maril.Parse took.
func loadMachines() (map[string]*mach.Machine, time.Duration, error) {
	out := map[string]*mach.Machine{}
	var busy time.Duration
	for _, name := range targets.Names() {
		src, err := targets.Source(name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		m, err := maril.Parse(name+".maril", src)
		busy += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("maril %s: %w", name, err)
		}
		out[name] = m
	}
	return out, busy, nil
}

// generators builds one library code generator per (target, strategy):
// one back-end worker, the emitted-code verifier on, no cache.
func generators(ms map[string]*mach.Machine) map[string]*core.CodeGenerator {
	out := map[string]*core.CodeGenerator{}
	for t, m := range ms {
		for _, k := range strategies {
			out[t+"/"+k.String()] = &core.CodeGenerator{Machine: m, Strategy: k, Workers: 1, Verify: true}
		}
	}
	return out
}

func genFor(gens map[string]*core.CodeGenerator, k *key) *core.CodeGenerator {
	return gens[k.Target+"/"+k.Strategy.String()]
}

// compileProblem names what is wrong with a library compile: an error,
// a verifier finding or a degradation. "" means the compile is clean.
func compileProblem(k *key, res *core.Result, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: compile: %v", k, err)
	case !res.Verify.Empty():
		return fmt.Sprintf("%s: %d verifier finding(s): %s", k, len(res.Verify.Findings), res.Verify.Findings[0])
	case len(res.Degradations) > 0:
		return fmt.Sprintf("%s: degraded: %s", k, res.Degradations[0].String())
	}
	return ""
}

// instLines counts the instructions of printed assembly: every line the
// printer indents (labels, data and comments are not indented).
func instLines(text string) int {
	n := 0
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "  ") {
			n++
		}
	}
	return n
}

// simJob is one distinct program of one Livermore key to execute.
type simJob struct {
	Key  *key
	Prog *asm.Program
	// results
	Cycles int64
	Err    error
}

// simulate runs init() then kern(simLoops) of every job on the timing
// simulator and checks the kern() checksum against the kernel's Go
// reference. It returns the summed simulator time.
func simulate(jobs []*simJob) time.Duration {
	var mu sync.Mutex
	var busy time.Duration
	next := make(chan *simJob)
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t0 := time.Now()
				j.Cycles, j.Err = runKernel(j.Key, j.Prog)
				d := time.Since(t0)
				mu.Lock()
				busy += d
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return busy
}

func runKernel(k *key, p *asm.Program) (int64, error) {
	s := sim.New(p, sim.Options{})
	if _, err := s.Run("init"); err != nil {
		return 0, fmt.Errorf("%s: init: %w", k, err)
	}
	st, err := s.Run("kern", sim.Int(simLoops))
	if err != nil {
		return 0, fmt.Errorf("%s: kern: %w", k, err)
	}
	if want := k.Src.Kernel.Ref(simLoops); !closeTo(st.RetF, want) {
		return 0, fmt.Errorf("%s: kern checksum %.17g, reference %.17g", k, st.RetF, want)
	}
	return st.Cycles, nil
}

// closeTo is the livermore package's tolerance: equal within 1e-9 of
// the larger magnitude (at least 1).
func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// codeChecks simulates every distinct output of every Livermore key and
// totals the figures of each key's first output: simulated kern()
// cycles and static instructions. outputs maps each key to its distinct
// outputs, first output first. Keys whose distinct outputs disagree in
// cycles or size are named in apart.
func codeChecks(o *outcome, keys []*key, outputs map[*key][]output) (cycles, insts int64) {
	var jobs []*simJob
	for _, k := range keys {
		if k.Src.Kernel == nil {
			continue
		}
		for _, out := range outputs[k] {
			if out.Prog != nil {
				jobs = append(jobs, &simJob{Key: k, Prog: out.Prog})
			}
		}
	}
	o.layer["sim.busy_s"] = simulate(jobs).Seconds()
	byKey := map[*key][]*simJob{}
	for _, j := range jobs {
		if j.Err != nil {
			o.problem(j.Err.Error())
		}
		byKey[j.Key] = append(byKey[j.Key], j)
	}
	for _, k := range keys {
		outs := outputs[k]
		if len(outs) == 0 {
			continue
		}
		insts += int64(instLines(outs[0].Text))
		for _, out := range outs[1:] {
			if instLines(out.Text) != instLines(outs[0].Text) {
				o.apart["size differs across outputs: "+k.String()]++
			}
		}
		js := byKey[k]
		if len(js) == 0 {
			continue
		}
		cycles += js[0].Cycles
		for _, j := range js[1:] {
			if j.Cycles != js[0].Cycles {
				o.apart["cycles differ across outputs: "+k.String()]++
			}
		}
	}
	return cycles, insts
}

// output is one distinct assembly text a key produced.
type output struct {
	Text string
	Prog *asm.Program // nil where only the text is known
}

// addOutput records text for k unless it is already known; it reports
// whether the text is new.
func addOutput(outputs map[*key][]output, k *key, text string, prog *asm.Program) bool {
	for _, out := range outputs[k] {
		if out.Text == text {
			return false
		}
	}
	outputs[k] = append(outputs[k], output{Text: text, Prog: prog})
	return true
}
