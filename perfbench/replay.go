package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/cc"
	"marion/internal/core"
	"marion/internal/driver"
	"marion/internal/ilgen"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/server"
	"marion/internal/strategy"
	"marion/internal/trace"
	"marion/internal/xform"
)

// replayBlock is the order of one block of the replay's passes over
// one round of keys, traced (true) or not: ABBA, so a drift of host
// speed during the block weighs on both halves alike. Blocks repeat
// until the untraced passes add up to replayMinOff, so the tracing
// overhead rests on seconds of work even where a pass is short (warm).
var replayBlock = []bool{true, false, false, true}

const replayMinOff = 3 * time.Second

// replayConfig says how the in-process replay mirrors a workload.
type replayConfig struct {
	// cOnly lowers every key from C (batch); otherwise request i of the
	// round is lowered in the language it was sent in.
	cOnly bool
	// cache is what every pass compiles against: nil for none (batch),
	// the primed cache (warm).
	cache *cache.Cache
	// wantHits says every function must hit the cache; otherwise none
	// may.
	wantHits bool
	// split runs the regalloc/sched split pass; off where the back end
	// does no work (warm), which then reports both as zero.
	split bool
}

// replayed is what the replay's passes gathered.
type replayed struct {
	traces  []*trace.Trace
	on, off time.Duration // wall time of the traced and untraced passes
	nOn     int           // traced passes
	sel     sel.Counters  // of the traced passes' back-end runs
	st      strategy.Stats
}

// replay pushes one round of keys through the compile path in-process,
// as the daemon compiles a request: lowering (cc + ilgen, or iltext),
// the back end through driver.CompileModule, asm printing and the JSON
// encoding of the answer. Traced passes record each request as an
// internal/trace span tree: the benchmark's own spans around the calls
// the program does not trace (lowering, printing, JSON) and, under a
// "library" span, the spans the back end records itself (per function
// cache lookup and store, per phase xform/select/strategy/verify).
// Per-layer busy times are self times over the traced passes, per
// round; trace.overhead_pct compares the traced passes' wall time with
// the untraced ones'. A split pass then times regalloc and sched apart.
func replay(e *env, o *outcome, ms map[string]*mach.Machine, keys []*key, cfg replayConfig) error {
	r := &replayed{}
	for r.off < replayMinOff {
		for _, traced := range replayBlock {
			if err := replayPass(o, ms, keys, cfg, traced, r); err != nil {
				return err
			}
		}
	}
	o.layer["trace.overhead_pct"] = 100 * (r.on - r.off).Seconds() / r.off.Seconds()
	o.info["replay_passes"] = 2 * r.nOn

	self := selfTimes(r.traces)
	n := float64(r.nOn)
	sec := func(names ...string) float64 {
		s := 0.0
		for _, name := range names {
			s += self[name].Seconds()
		}
		return s / n
	}
	for _, l := range []string{"cc", "ilgen", "iltext", "xform", "strategy", "verify"} {
		o.layer[l+".busy_s"] = sec(l)
	}
	o.layer["sel.busy_s"] = sec("select")
	o.layer["cache.hit_busy_s"] = sec("cache hit")
	o.layer["asm.print_busy_s"] = sec("asm.print")
	o.layer["json.encode_busy_s"] = sec("json.encode")
	// What the library compile spends outside every layer span: its own
	// span, the per-function and per-attempt spans, and cache misses.
	o.layer["pipeline.overhead_s"] = sec("library", "fn", "attempt", "cache miss")
	o.layer["sel.tried"] = float64(r.sel.Tried) / n
	o.layer["sel.memo_hit_ratio"] = float64(r.sel.MemoHits) / float64(max(r.sel.MemoHits+r.sel.MemoMisses, 1))
	o.layer["strategy.alloc_rounds"] = float64(r.st.AllocRounds) / n
	o.layer["strategy.spills"] = float64(r.st.Spills) / n
	o.layer["strategy.sched_passes"] = float64(r.st.SchedulePasses) / n

	o.layer["regalloc.busy_s"], o.layer["sched.busy_s"] = 0, 0
	if cfg.split {
		ra, sd, err := splitPass(ms, keys)
		if err != nil {
			return err
		}
		o.layer["regalloc.busy_s"], o.layer["sched.busy_s"] = ra.Seconds(), sd.Seconds()
	}
	return writeTraces(e, r.traces)
}

// replayPass replays the keys once, traced or not, and checks that
// every function took the path the workload says: a hit on warm, a
// miss everywhere else. Without that the per-layer figures would be
// another path's.
func replayPass(o *outcome, ms map[string]*mach.Machine, keys []*key, cfg replayConfig, traced bool, r *replayed) error {
	c := cfg.cache
	var before cache.Stats
	if c != nil {
		before = c.Stats()
	}
	funcs, hits := 0, 0
	t0 := time.Now()
	for i, k := range keys {
		l := "c"
		if !cfg.cOnly {
			l = lang(i)
		}
		var root *trace.Span
		if traced {
			root = trace.New(k.String(), "request")
		}
		res, err := replayOne(root, ms[k.Target], k, l, c)
		if traced {
			r.traces = append(r.traces, root.Finish("ok", 0))
		}
		if err != nil {
			o.problem(fmt.Sprintf("replay %s: %v", k, err))
			continue
		}
		funcs += k.Src.Funcs
		hits += res.CacheHits
		// A hit carries the counters of the compile that filled the
		// cache; only a back end that ran counts.
		if traced && res.CacheHits == 0 {
			r.sel.Add(res.Sel)
			for _, s := range res.Stats {
				r.st.AllocRounds += s.AllocRounds
				r.st.Spills += s.Spills
				r.st.SchedulePasses += s.SchedulePasses
			}
		}
	}
	if traced {
		r.on += time.Since(t0)
		r.nOn++
	} else {
		r.off += time.Since(t0)
	}
	want := 0
	if cfg.wantHits {
		want = funcs
	}
	if hits != want {
		o.problem(fmt.Sprintf("replay: %d of %d functions hit the cache, want %d", hits, funcs, want))
	}
	if c != nil {
		if got := c.Stats().Hits() - before.Hits(); got != int64(hits) {
			o.problem(fmt.Sprintf("replay: the cache counted %d hits, the compiles %d", got, hits))
		}
	}
	return nil
}

// replayOne compiles key k sent in language l as the daemon does, with
// tracing under root when root is not nil: no verify phase when there
// is a cache (the store verifies), one back-end worker.
func replayOne(root *trace.Span, m *mach.Machine, k *key, l string, c *cache.Cache) (*driver.Compiled, error) {
	mod, err := lower(root, k, l)
	if err != nil {
		return nil, err
	}
	lib := root.Child("library")
	res, err := driver.CompileModule(m, mod, driver.Config{
		Strategy: k.Strategy, Workers: 1, Verify: c == nil, Cache: c, Span: lib,
	})
	lib.End()
	if err != nil {
		return nil, err
	}
	if p := compileProblem(k, &core.Result{Verify: res.Verify, Degradations: res.Degradations}, nil); p != "" {
		return nil, errors.New(p)
	}
	sp := root.Child("asm.print")
	text := res.Prog.Print()
	sp.End()
	sp = root.Child("json.encode")
	_, err = json.Marshal(&server.CompileResponse{Target: k.Target, Strategy: k.Strategy.String(),
		Assembly: text, Stats: res.Stats})
	sp.End()
	return res, err
}

// lower runs the front end of key k in language l, each call in a span
// under parent (none when parent is nil).
func lower(parent *trace.Span, k *key, l string) (*ir.Module, error) {
	if l == "il" {
		sp := parent.Child("iltext")
		defer sp.End()
		return iltext.Parse(strings.TrimSuffix(k.Src.Name, ".c")+".il", k.Src.IL)
	}
	sp := parent.Child("cc")
	f, err := cc.Compile(k.Src.Name, k.Src.C)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = parent.Child("ilgen")
	defer sp.End()
	return ilgen.Lower(f)
}

// selfTimes sums, per span name, each finished span's self time: its
// duration minus the part of its interval that its children cover.
// Per-function spans ("fn:<name>") count under "fn", and cache lookups
// under "cache hit" or "cache miss" by their result.
func selfTimes(traces []*trace.Trace) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range traces {
		kids := map[int][]trace.SpanRecord{}
		for _, s := range t.Spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		for _, s := range t.Spans {
			covered, cur := int64(0), s.StartUs
			ch := kids[s.ID]
			sort.Slice(ch, func(i, j int) bool { return ch[i].StartUs < ch[j].StartUs })
			for _, c := range ch {
				lo, hi := max(c.StartUs, cur), min(c.StartUs+c.DurUs, s.StartUs+s.DurUs)
				if hi > lo {
					covered += hi - lo
					cur = hi
				}
			}
			out[spanKind(s)] += time.Duration(s.DurUs-covered) * time.Microsecond
		}
	}
	return out
}

func spanKind(s trace.SpanRecord) string {
	switch {
	case strings.HasPrefix(s.Name, "fn:"):
		return "fn"
	case s.Name == "cache":
		for _, a := range s.Attrs {
			if a.Key == "result" {
				return "cache " + a.Value
			}
		}
	}
	return s.Name
}

// writeTraces saves the traced passes' span trees as JSON.
func writeTraces(e *env, traces []*trace.Trace) error {
	b, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	return os.WriteFile(e.tracePath(), b, 0o644)
}

// splitPass splits strategy time into its two halves on every key's
// functions. Each key is lowered, its functions cloned, and the module
// compiled once untimed, which lays the globals out (the clones share
// them); then each clone is transformed and selected untimed, and
// allocated (regalloc.AllocateOpts) and scheduled block by block
// (sched.Schedule) in postpass order, each half timed.
func splitPass(ms map[string]*mach.Machine, keys []*key) (ra, sd time.Duration, err error) {
	for _, k := range keys {
		m := ms[k.Target]
		mod, err := lower(nil, k, "c")
		if err != nil {
			return 0, 0, err
		}
		clones := make([]*ir.Func, len(mod.Funcs))
		for i, fn := range mod.Funcs {
			clones[i] = fn.Clone()
		}
		if _, err := driver.CompileModule(m, mod, driver.Config{Strategy: k.Strategy, Workers: 1}); err != nil {
			return 0, 0, err
		}
		for _, fn := range clones {
			xform.Apply(m, fn)
			af, err := sel.Select(m, fn)
			if err != nil {
				return 0, 0, err
			}
			a, s, err := allocSched(m, af)
			if err != nil {
				return 0, 0, fmt.Errorf("split %s %s: %w", k, fn.Name, err)
			}
			ra, sd = ra+a, sd+s
		}
	}
	return ra, sd, nil
}

func allocSched(m *mach.Machine, af *asm.Func) (ra, sd time.Duration, err error) {
	t0 := time.Now()
	if _, err := regalloc.AllocateOpts(m, af, regalloc.Options{}); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	for _, b := range af.Blocks {
		if _, err := sched.Schedule(m, af, b, sched.Options{}); err != nil {
			return 0, 0, err
		}
	}
	return t1.Sub(t0), time.Since(t1), nil
}
