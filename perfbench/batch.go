package main

import (
	"fmt"
	"runtime"
	"time"

	"marion/internal/core"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// batchSetups is how many times batch set-up (parse every description,
// build the 30 generators) is repeated; setup_s is the median of their
// CPU times. One set-up takes a few milliseconds, so a median of 25
// still spread 25% from run to run.
const batchSetups = 250

// Determinism probe: the known i860 fault (temporal groups placed in
// map order, internal/sched) makes repeated compiles of Livermore
// kernel 8 under "local" differ; in 100 compiles no output recurred
// more than about one time in ten, so probeCompiles identical outputs
// in a row would take odds below 1e-9. Each round runs the probe once
// and counts it as failed when the outputs differ.
const (
	probeTarget   = "i860"
	probeKernel   = 8
	probeCompiles = 12
)

var probeStrategy = strategy.Local

// runBatch compiles the 14 Livermore kernels on every target under
// every strategy through the public library entry, in whole rounds of
// all 420 (kernel, target, strategy) keys in seeded order, until the
// timed compile work reaches the run length.
func runBatch(e *env) (*outcome, error) {
	o := newOutcome()
	srcs, err := loadSources(e.root, false)
	if err != nil {
		return nil, err
	}
	keys := makeKeys(srcs, targets.Names())

	var setups, marils []float64
	var ms map[string]*mach.Machine
	var gens map[string]*core.CodeGenerator
	for i := 0; i < batchSetups; i++ {
		c0 := cpuNow()
		var maril time.Duration
		ms, maril, err = loadMachines()
		if err != nil {
			return nil, err
		}
		gens = generators(ms)
		setups = append(setups, (cpuNow() - c0).Seconds())
		marils = append(marils, maril.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.layer["maril.busy_s"] = median(marils)

	probeKey := &key{Target: probeTarget, Strategy: probeStrategy}
	for _, s := range srcs {
		if s.Kernel.ID == probeKernel {
			probeKey.Src = s
		}
	}

	outputs := map[*key][]output{}
	var stats []roundStat
	var busy time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r == 0 || busy < e.seconds; r++ {
		var rs roundStat
		h0 := readHostTicks()
		for _, k := range order(keys, e.seed, r) {
			g := genFor(gens, k)
			t0, c0 := time.Now(), cpuNow()
			res, err := g.Compile(k.Src.Name, k.Src.C)
			var text string
			if err == nil {
				text = res.Program.Print()
			}
			d, wall := cpuNow()-c0, time.Since(t0)

			o.attempted++
			if p := compileProblem(k, res, err); p != "" {
				o.problem(p)
				continue
			}
			busy += wall
			rs.wall += wall.Seconds()
			rs.secs += d.Seconds()
			rs.funcs += k.Src.Funcs
			rs.lats = append(rs.lats, float64(d)/float64(time.Millisecond))
			if addOutput(outputs, k, text, res.Program) && len(outputs[k]) > 1 {
				passIdentity(o, k)
			}
		}
		rs.steal = stealShare(h0, readHostTicks())
		stats = append(stats, rs)
		o.attempted++
		if n, err := probe(genFor(gens, probeKey), probeKey); err != nil {
			return nil, err
		} else if n > 1 {
			o.failed++
			o.info["probe_distinct_outputs"] = n
		}
	}
	runtime.ReadMemStats(&m1)
	o.e2e["peak_rss_mb"] = selfPeakRSSMB()
	if err := summarize(o, stats); err != nil {
		return nil, err
	}
	allFuncs := 0
	for _, rs := range stats {
		allFuncs += rs.funcs
	}
	o.info["probe"] = fmt.Sprintf("%s loop%d %s compiled %d times per round; a round whose outputs differ counts one failed operation",
		probeTarget, probeKernel, probeStrategy, probeCompiles)
	o.layer["runtime.alloc_bytes_per_func"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(allFuncs)
	o.layer["runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / float64(len(stats))

	cycles, insts := codeChecks(o, keys, outputs)
	o.e2e["sim_cycles"], o.e2e["code_insts"] = float64(cycles), float64(insts)

	for _, l := range []string{"cache.hit_ratio", "cache.stores", "server.rtt_ms", "server.elapsed_ms",
		"server.http_json_ms", "overload.queue_ms"} {
		o.layer[l] = 0 // no cache and no daemon in this workload
	}
	if e.trace {
		cfg := replayConfig{cOnly: true, split: true}
		if err := replay(e, o, ms, order(keys, e.seed, 0), cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// passIdentity records that key k produced a second distinct output:
// on i860 that is the known scheduler fault, reported apart by name;
// anywhere else the output is not deterministic and the run is wrong.
func passIdentity(o *outcome, k *key) {
	if k.Target == probeTarget {
		o.apart["output differs across rounds: "+k.String()]++
		return
	}
	o.problem(fmt.Sprintf("%s: output differs across rounds", k))
}

// probe compiles one key probeCompiles times and returns how many
// distinct outputs it got.
func probe(g *core.CodeGenerator, k *key) (int, error) {
	seen := map[string]bool{}
	for i := 0; i < probeCompiles; i++ {
		res, err := g.Compile(k.Src.Name, k.Src.C)
		if p := compileProblem(k, res, err); p != "" {
			return 0, fmt.Errorf("determinism probe: %s", p)
		}
		seen[res.Program.Print()] = true
	}
	return len(seen), nil
}
