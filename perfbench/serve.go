package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"marion/internal/cache"
	"marion/internal/core"
	"marion/internal/server"
	"marion/internal/targets"
)

// warmDaemons is how many daemons serve-warm primes and measures in
// turn; setup_s and peak_rss_mb are medians over them.
const warmDaemons = 3

// daemon is one mariond process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

var daemonSeq int

// startDaemon starts a non-race mariond on a free loopback port and
// waits until /readyz answers. The access log is off: the benchmark
// measures compiles, not log writes.
func startDaemon(bin, dir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no mariond binary given (-mariond)")
	}
	daemonSeq++
	addrFile := filepath.Join(dir, fmt.Sprintf("mariond-%d-%d.addr", os.Getpid(), daemonSeq))
	_ = os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-accesslog", "off")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mariond: %w", err)
	}
	d := &daemon{cmd: cmd}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			_ = os.Remove(addrFile)
			break
		}
		time.Sleep(time.Millisecond)
	}
	for d.base != "" && time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, errors.New("mariond did not become ready within 60s")
}

// stop drains the daemon with SIGTERM, waits for it to exit (killing
// it after 20s) and returns its peak resident set in MiB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// getJSON fetches a daemon endpoint into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonState is what the daemon says about itself between phases.
type daemonState struct {
	Cache         cache.Stats
	PressureLevel int
	TotalAlloc    uint64
	NumGC         uint32
}

func (d *daemon) state() (daemonState, error) {
	var st server.Statz
	if err := d.getJSON("/statz", &st); err != nil {
		return daemonState{}, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint32
		} `json:"memstats"`
	}
	if err := d.getJSON("/debug/vars", &vars); err != nil {
		return daemonState{}, err
	}
	return daemonState{Cache: st.Cache, PressureLevel: st.PressureLevel,
		TotalAlloc: vars.Memstats.TotalAlloc, NumGC: vars.Memstats.NumGC}, nil
}

// cpu is the CPU time the daemon has used since it started, on all its
// threads.
func (d *daemon) cpu() time.Duration { return processCPU(d.cmd.Process.Pid) }

// answer holds the fields of a /compile answer the checks read.
type answer struct {
	Assembly       string   `json:"assembly"`
	Degradations   []string `json:"degradations"`
	VerifyFindings []string `json:"verify_findings"`
	QueueMs        float64  `json:"queue_ms"`
	ElapsedMs      float64  `json:"elapsed_ms"`
	BrownoutLevel  int      `json:"brownout_level"`
	CacheHits      int      `json:"cache_hits"`
}

// sample is one answered request, as the client saw it.
type sample struct {
	rtt, elapsed, queue float64 // ms
	// cpu is the daemon's CPU time from just before the request was sent
	// until its answer was read, in ms: the request's own cost when it is
	// the only one in flight.
	cpu float64
}

// timedClients is how many closed-loop clients send the timed rounds:
// one request in flight, so each request's daemon CPU time is its own.
// Set-up (priming) uses primeClients.
const timedClients = 1

var primeClients = runtime.NumCPU()

// loadGen sends requests from closed-loop clients, each sending its
// next request only after the previous answer is read, over at most
// nproc connections.
type loadGen struct {
	hc     *http.Client
	bodies map[string][]byte // key + lang -> encoded request
}

func newLoadGen(keys []*key) (*loadGen, error) {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	g := &loadGen{hc: &http.Client{Transport: tr}, bodies: map[string][]byte{}}
	for _, k := range keys {
		for _, l := range []string{"c", "il"} {
			req := server.CompileRequest{Source: k.Src.C, Lang: l, Filename: k.Src.Name,
				Target: k.Target, Strategy: k.Strategy.String()}
			if l == "il" {
				req.Source, req.Filename = k.Src.IL, strings.TrimSuffix(k.Src.Name, ".c")+".il"
			}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			g.bodies[k.String()+"|"+l] = b
		}
	}
	return g, nil
}

func (g *loadGen) close() { g.hc.CloseIdleConnections() }

// round sends every key of ks once from the given number of clients,
// request i in language langOf(i), and calls onAnswer for each; onAnswer
// runs on the client goroutines and must be safe for concurrent use. It
// returns the round's wall time.
func (g *loadGen) round(d *daemon, ks []*key, clients int, langOf func(int) string,
	onAnswer func(k *key, a *answer, s sample, err error)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ks) {
					return
				}
				k := ks[i]
				a, s, err := g.send(d, g.bodies[k.String()+"|"+langOf(i)])
				onAnswer(k, a, s, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (g *loadGen) send(d *daemon, body []byte) (*answer, sample, error) {
	c0, t0 := d.cpu(), time.Now()
	resp, err := g.hc.Post(d.base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, sample{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt, cpu := time.Since(t0), d.cpu()-c0
	if err != nil {
		return nil, sample{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, sample{}, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var a answer
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, sample{}, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &a, sample{rtt: ms(rtt), elapsed: a.ElapsedMs, queue: a.QueueMs, cpu: ms(cpu)}, nil
}

// served gathers the answers of the timed phase, or of one daemon's
// priming.
type served struct {
	mu      sync.Mutex
	samples []sample
	funcs   int
	outputs map[*key][]output // distinct served assembly per key
	o       *outcome
	wantHit bool // every function must hit (timed rounds) or miss (priming)
	// first holds the current daemon's first answer per key.
	first map[*key]string
}

// add checks one answer: a 200, brownout level 0, no degradation or
// finding, every function a hit (timed rounds) or a miss (priming).
// Every answer of a daemon must repeat its first answer for the key
// byte for byte.
func (s *served) add(k *key, a *answer, smp sample, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.o.attempted++
	switch {
	case err != nil:
		s.o.problem(fmt.Sprintf("%s: %v", k, err))
		return
	case a.BrownoutLevel != 0:
		s.o.problem(fmt.Sprintf("%s: brownout level %d", k, a.BrownoutLevel))
	case len(a.Degradations)+len(a.VerifyFindings) > 0:
		s.o.problem(fmt.Sprintf("%s: degraded or unverified: %v %v", k, a.Degradations, a.VerifyFindings))
	case s.wantHit && a.CacheHits != k.Src.Funcs:
		s.o.problem(fmt.Sprintf("%s: %d of %d functions hit a warm cache", k, a.CacheHits, k.Src.Funcs))
	case !s.wantHit && a.CacheHits != 0:
		s.o.problem(fmt.Sprintf("%s: %d functions hit an empty cache", k, a.CacheHits))
	}
	if f, ok := s.first[k]; !ok {
		s.first[k] = a.Assembly
	} else if f != a.Assembly {
		s.o.problem(fmt.Sprintf("%s: warm answer differs from the first answer", k))
	}
	addOutput(s.outputs, k, a.Assembly, nil)
	s.samples = append(s.samples, smp)
	s.funcs += k.Src.Funcs
}

// runServe measures mariond answering from a warm cache: daemons in
// turn, each with every key primed in set-up, then whole rounds of all
// keys in seeded order, every function a cache hit. Timings are the
// daemon's CPU
// time: a round's rate is its functions over the daemon's CPU time in
// the round, a request's latency the daemon's CPU time while it was the
// only request in flight, set-up the daemon's CPU time from its start
// to the first timed request. Wall times are kept beside them.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	srcs, err := loadSources(e.root, true)
	if err != nil {
		return nil, err
	}
	keys := makeKeys(srcs, targets.Names())
	ms, maril, err := loadMachines()
	if err != nil {
		return nil, err
	}
	o.layer["maril.busy_s"] = maril.Seconds()
	gen, err := newLoadGen(keys)
	if err != nil {
		return nil, err
	}
	defer gen.close()

	sv := &served{outputs: map[*key][]output{}, o: o, wantHit: true}
	var timed time.Duration
	var setups, rss []float64
	var alloc uint64
	var gcs uint32
	var hits, lookups, stores int64
	var stats []roundStat
	rounds := 0

	// measure runs timed rounds against d until the timed work reaches
	// share, and adds the daemon's own counters over them.
	measure := func(d *daemon, share time.Duration) error {
		before, err := d.state()
		if err != nil {
			return err
		}
		for rounds == 0 || timed < share {
			var rs roundStat
			f0, s0, c0, h0 := sv.funcs, len(sv.samples), d.cpu(), readHostTicks()
			w := gen.round(d, order(keys, e.seed, rounds), timedClients, lang, sv.add)
			rs.secs, rs.wall, rs.funcs = (d.cpu() - c0).Seconds(), w.Seconds(), sv.funcs-f0
			rs.steal = stealShare(h0, readHostTicks())
			for _, smp := range sv.samples[s0:] {
				rs.lats = append(rs.lats, smp.cpu)
			}
			stats = append(stats, rs)
			timed += w
			rounds++
		}
		after, err := d.state()
		if err != nil {
			return err
		}
		if after.PressureLevel != 0 {
			o.problem(fmt.Sprintf("brownout level %d after the timed phase", after.PressureLevel))
		}
		alloc += after.TotalAlloc - before.TotalAlloc
		gcs += after.NumGC - before.NumGC
		hits += after.Cache.Hits() - before.Cache.Hits()
		lookups += after.Cache.Hits() + after.Cache.Misses - before.Cache.Hits() - before.Cache.Misses
		stores += after.Cache.Stores - before.Cache.Stores
		return nil
	}

	// Several daemons in turn, each primed and then measured for an
	// equal share of the run: a daemon's own placement and pacing move
	// its throughput by a few percent, and the medians then rest on
	// more than one. Priming must miss on every function.
	for i := 1; i <= warmDaemons; i++ {
		d, err := startDaemon(e.mariond, e.out)
		if err != nil {
			return nil, err
		}
		sv.first = map[*key]string{}
		prime := &served{outputs: sv.outputs, o: newOutcome(), first: sv.first}
		gen.round(d, keys, primeClients, func(int) string { return "c" }, prime.add)
		setups = append(setups, d.cpu().Seconds())
		for _, p := range prime.o.problems {
			o.problem("priming: " + p)
		}
		err = measure(d, e.seconds*time.Duration(i)/warmDaemons)
		rss = append(rss, d.stop())
		if err != nil {
			return nil, err
		}
	}

	o.e2e["setup_s"] = median(setups)
	o.e2e["peak_rss_mb"] = median(rss)
	if err := summarize(o, stats); err != nil {
		return nil, err
	}
	var rtt, elapsed, queue, httpJSON []float64
	for _, s := range sv.samples {
		rtt = append(rtt, s.rtt)
		elapsed = append(elapsed, s.elapsed)
		queue = append(queue, s.queue)
		httpJSON = append(httpJSON, s.rtt-s.elapsed)
	}
	o.info["clients"] = timedClients
	o.layer["server.rtt_ms"] = median(rtt)
	o.layer["server.elapsed_ms"] = median(elapsed)
	o.layer["server.http_json_ms"] = median(httpJSON)
	o.layer["overload.queue_ms"] = mean(queue)
	o.layer["runtime.alloc_bytes_per_func"] = float64(alloc) / float64(sv.funcs)
	o.layer["runtime.gc_cycles"] = float64(gcs) / float64(rounds)
	o.layer["cache.hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	o.layer["cache.stores"] = float64(stores) / float64(rounds)

	// Checks: every served assembly equals the library compile of its
	// key, and the library output runs correctly on the simulator.
	gens := generators(ms)
	var replayCache *cache.Cache
	if e.trace {
		// The replay reads the cache the reference compiles fill.
		if replayCache, err = cache.New(cache.Options{}); err != nil {
			return nil, err
		}
	}
	refs := referenceCompiles(o, gens, keys, replayCache)
	outputs := map[*key][]output{}
	for _, k := range keys {
		ref, ok := refs[k]
		if !ok {
			continue
		}
		outputs[k] = []output{{Text: ref.Program.Print(), Prog: ref.Program}}
		for _, out := range sv.outputs[k] {
			if addOutput(outputs, k, out.Text, nil) {
				servedDiffers(o, k)
			}
		}
	}
	cycles, insts := codeChecks(o, keys, outputs)
	o.e2e["sim_cycles"], o.e2e["code_insts"] = float64(cycles), float64(insts)

	if e.trace {
		cfg := replayConfig{cache: replayCache, wantHits: true}
		if err := replay(e, o, ms, order(keys, e.seed, 0), cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// servedDiffers records a served assembly that differs from the library
// compile of the same key: the known i860 fault apart, by name; a wrong
// answer anywhere else.
func servedDiffers(o *outcome, k *key) {
	if k.Target == probeTarget {
		o.apart["served differs from library: "+k.String()]++
		return
	}
	o.problem(fmt.Sprintf("%s: served assembly differs from the library compile", k))
}

// referenceCompiles compiles every key once through the public library
// entry (checkWorkers at a time). A compile that is not clean is a
// problem and has no entry in the result.
func referenceCompiles(o *outcome, gens map[string]*core.CodeGenerator, keys []*key, c *cache.Cache) map[*key]*core.Result {
	refs := make(map[*key]*core.Result, len(keys))
	var mu sync.Mutex
	next := make(chan *key)
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				g := *genFor(gens, k)
				g.Cache = c
				res, err := g.Compile(k.Src.Name, k.Src.C)
				mu.Lock()
				if p := compileProblem(k, res, err); p != "" {
					o.problem(p)
				} else {
					refs[k] = res
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return refs
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
