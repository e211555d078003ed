// Package server is mariond's HTTP front door: Marion's code generator
// behind a network API, built only on net/http.
//
// One Server owns one finalized mach.Machine per shipped target (loaded
// and fingerprinted once, then shared read-only by every request) and
// one content-addressed cache.Cache shared across all requests — a hit
// produced by any client serves every later client asking for the same
// (canonical IR, machine, config) triple.
//
// Admission control is an adaptive concurrency limiter
// (internal/overload): Config.MaxInflight seeds the limit, and with an
// SLO configured, AIMD walks it against measured compile latency. The
// bounded wait queue (Config.MaxQueue) sheds overflow with 429 and a
// COMPUTED Retry-After (queue depth x EWMA service estimate), and
// evicts queued requests whose remaining deadline is below the service
// estimate — shed-before-doomed, so load beyond capacity degrades to
// fast, honest rejections instead of unbounded queueing. Per-request
// deadlines (the X-Marion-Deadline-Ms header, or Config.DefaultDeadline)
// propagate through context.Context into the pipeline's
// budget/degradation machinery: an expired request returns structured
// per-function diagnostics, never a hung connection.
//
// Sustained pressure engages the brownout ladder (Config.Brownout):
// verify off -> strategies capped at postpass -> safe only ->
// cache-hits only, each level recorded in responses and /statz, and
// recovered level by level with hysteresis once pressure falls.
//
// A per-(target, strategy) circuit breaker (Config.BreakerThreshold)
// trips on repeated panics, budget exhaustions and injected server
// faults, reroutes that combination down strategy.FallbackChain while
// other combinations keep serving, and writes a replayable quarantine
// bundle (Config.QuarantineDir) that `marionc -replay` reproduces.
//
// Graceful drain: BeginDrain flips /readyz to 503 and rejects new
// compiles; the owner then lets http.Server.Shutdown finish in-flight
// requests and calls Close, which flushes the cache's disk tier.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marion/internal/budget"
	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/overload"
	"marion/internal/pipeline"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/trace"
)

// Config tunes a Server. The zero value serves every shipped target
// with sensible production defaults.
type Config struct {
	// Targets lists the machine descriptions to preload; empty means
	// every shipped target.
	Targets []string
	// MaxInflight bounds concurrently compiling requests; <= 0 means
	// GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds requests waiting for a compile slot; beyond it,
	// requests are shed with 429. <= 0 means 2*MaxInflight.
	MaxQueue int
	// DefaultDeadline applies when a request carries no deadline
	// header; <= 0 means 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the client-supplied deadline; <= 0 means 2m.
	MaxDeadline time.Duration
	// Budget is the default per-function compilation budget (0 = the
	// request deadline alone bounds each function).
	Budget time.Duration
	// Workers is the default per-function worker pool per request;
	// <= 0 means 1 (cross-request parallelism is the daemon's bread and
	// butter; within-request parallelism is the client's opt-in).
	Workers int
	// MaxSourceBytes bounds the request body; <= 0 means 4 MiB.
	MaxSourceBytes int64
	// CacheBytes sizes the shared in-memory cache tier (<= 0: 64 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, persists the shared cache on disk.
	CacheDir string
	// Registry receives the server's instruments; nil means
	// metrics.Default().
	Registry *metrics.Registry

	// SLO is the target compile latency driving the adaptive concurrency
	// limiter: in-SLO completions grow the limit additively (up to
	// 4*MaxInflight), breaches shrink it multiplicatively. Zero keeps
	// the limit fixed at MaxInflight (the static-semaphore behavior).
	SLO time.Duration
	// Brownout enables the hysteretic degradation ladder driven by
	// admission pressure; off, every request runs at full fidelity.
	Brownout bool
	// BreakerThreshold enables per-(target, strategy) circuit breakers:
	// that many consecutive panics/budget exhaustions trip the
	// combination open. 0 disables breakers entirely.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped combination stays open
	// before one probe is admitted; <= 0 means 1s.
	BreakerCooldown time.Duration
	// QuarantineDir, when non-empty, receives a replayable bundle
	// (config.json + input.il) for every breaker trip.
	QuarantineDir string
	// Faults arms server-level fault injection: the "serve" site fires
	// around each admitted compile with the breaker key as the function
	// name and the per-key request sequence as the index, so
	// serve:err@fn=r2000/rase@max=3 fails exactly that key's first
	// three requests. Pipeline-site entries are passed down to the back
	// end as usual.
	Faults *faults.Set
	// Clock is the time source for brownout/breaker pacing (default
	// time.Now), injectable for deterministic tests.
	Clock func() time.Time

	// TraceRing sizes the in-memory ring of finished request traces
	// served at GET /tracez; <= 0 disables tracing entirely (every span
	// operation degenerates to one nil check, so compile output and
	// throughput are identical to a traceless build).
	TraceRing int
	// TraceSLO marks traces at or above this duration as SLO breaches,
	// which the ring preferentially retains. <= 0 falls back to SLO,
	// then to 1s.
	TraceSLO time.Duration
	// AccessLog, when non-nil, receives one structured line per request
	// ("access": request ID, status, latency, outcome, admission and
	// brownout detail). Nil disables access logging.
	AccessLog *slog.Logger
}

func (c *Config) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInflight
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 4 << 20
	}
	if len(c.Targets) == 0 {
		c.Targets = targets.Names()
	}
	if c.Registry == nil {
		c.Registry = metrics.Default()
	}
	if c.TraceSLO <= 0 {
		c.TraceSLO = c.SLO
	}
	if c.TraceSLO <= 0 {
		c.TraceSLO = time.Second
	}
}

// Server is the compile service. Create with New; all methods are safe
// for concurrent use.
type Server struct {
	cfg      Config
	machines map[string]*mach.Machine
	cache    *cache.Cache
	mux      *http.ServeMux
	start    time.Time

	lim      *overload.Limiter  // adaptive admission controller
	brown    *overload.Brownout // nil unless Config.Brownout
	breakers *overload.Breakers // nil unless Config.BreakerThreshold > 0
	ring     *trace.Ring        // nil unless Config.TraceRing > 0
	draining atomic.Bool
	warn     error // non-fatal setup problems (cache disk tier)

	// pipeFaults is the pipeline-site subset of Config.Faults, handed to
	// the driver; serve-site-only specs must NOT reach the pipeline (an
	// armed set disables the compilation cache, which would mask the
	// cache-only brownout level under chaos).
	pipeFaults *faults.Set

	seqMu sync.Mutex
	seq   map[string]int // per-breaker-key request sequence (fault index)

	stop     chan struct{} // stops the brownout observer goroutine
	stopOnce sync.Once

	requests, accepted, shed  *metrics.Counter
	expired, failed           *metrics.Counter
	evictedC, rerouted, quarC *metrics.Counter
	limitGauge, levelGauge    *metrics.Gauge
	compileSec, queueSec      *metrics.Histogram
}

// New loads and finalizes every configured target exactly once (the
// per-machine fingerprint is computed at finalize time) and builds the
// shared cache. A cache disk-tier error disables only the disk tier;
// it is reported by Warning, not returned.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		machines: make(map[string]*mach.Machine, len(cfg.Targets)),
		start:    time.Now(),
		seq:      map[string]int{},
		lim: overload.NewLimiter(overload.LimiterConfig{
			Initial:  cfg.MaxInflight,
			SLO:      cfg.SLO,
			MaxQueue: cfg.MaxQueue,
		}),

		requests:   cfg.Registry.Counter("server.requests"),
		accepted:   cfg.Registry.Counter("server.accepted"),
		shed:       cfg.Registry.Counter("server.shed"),
		expired:    cfg.Registry.Counter("server.expired"),
		failed:     cfg.Registry.Counter("server.failed"),
		evictedC:   cfg.Registry.Counter("server.evicted"),
		rerouted:   cfg.Registry.Counter("server.breaker.rerouted"),
		quarC:      cfg.Registry.Counter("server.breaker.quarantined"),
		limitGauge: cfg.Registry.Gauge("server.limit"),
		levelGauge: cfg.Registry.Gauge("server.brownout.level"),
		compileSec: cfg.Registry.Histogram("server.compile.seconds", metrics.TimeBuckets),
		queueSec:   cfg.Registry.Histogram("server.queue.seconds", metrics.TimeBuckets),
	}
	s.limitGauge.Set(int64(s.lim.Limit()))
	s.ring = trace.NewRing(cfg.TraceRing, cfg.TraceSLO)
	s.pipeFaults = pipelineFaults(cfg.Faults)
	if cfg.Brownout {
		s.brown = overload.NewBrownout(overload.BrownoutConfig{Clock: cfg.Clock})
		s.stop = make(chan struct{})
		go s.observeLoop()
	}
	if cfg.BreakerThreshold > 0 {
		s.breakers = overload.NewBreakers(overload.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
			Clock:     cfg.Clock,
		})
	}
	for _, t := range cfg.Targets {
		m, err := targets.Load(t)
		if err != nil {
			return nil, err
		}
		s.machines[t] = m
	}
	ch, warn := cache.New(cache.Options{
		MaxBytes: cfg.CacheBytes,
		Dir:      cfg.CacheDir,
		Registry: cfg.Registry,
	})
	s.cache, s.warn = ch, warn

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Warning reports non-fatal setup problems (a disabled cache disk
// tier); nil when setup was clean.
func (s *Server) Warning() error { return s.warn }

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the shared compilation cache (for stats and tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Targets returns the names of the machines this server serves.
func (s *Server) Targets() []string { return s.cfg.Targets }

// BeginDrain stops admitting new compiles: /readyz turns 503 (so load
// balancers stop routing here) and /compile starts answering 503 with
// Retry-After. In-flight requests are unaffected; the owner finishes
// them with http.Server.Shutdown and then calls Close.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the brownout observer, flushes the shared cache's disk
// tier (entries whose disk write was lost are rewritten) and returns
// the number of entries flushed. Call after in-flight requests have
// drained.
func (s *Server) Close() int {
	if s.stop != nil {
		s.stopOnce.Do(func() { close(s.stop) })
	}
	return s.cache.Flush()
}

// observeLoop feeds admission pressure into the brownout controller on
// a fixed cadence, so recovery happens even when no requests arrive to
// observe it.
func (s *Server) observeLoop() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.levelGauge.Set(int64(s.brown.Observe(s.lim.Pressure())))
			s.limitGauge.Set(int64(s.lim.Limit()))
		}
	}
}

// level is the current brownout level (0 when brownout is disabled).
func (s *Server) level() int {
	if s.brown == nil {
		return 0
	}
	return s.brown.Level()
}

// nextSeq returns and advances the per-breaker-key request sequence
// number — the serve fault site's index.
func (s *Server) nextSeq(key string) int {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	n := s.seq[key]
	s.seq[key] = n + 1
	return n
}

// pipelineFaults extracts the pipeline-site subset of an armed fault
// set; nil when nothing remains.
func pipelineFaults(set *faults.Set) *faults.Set {
	if set.Empty() {
		return nil
	}
	pipe := map[string]bool{}
	for _, site := range faults.Sites() {
		pipe[site] = true
	}
	out := &faults.Set{}
	for _, f := range set.Faults {
		if pipe[f.Site] {
			out.Faults = append(out.Faults, f)
		}
	}
	if len(out.Faults) == 0 {
		return nil
	}
	return out
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, "mariond: Marion compile service\n\nPOST /compile   {source, lang, target, strategy, options} -> assembly JSON\nGET  /healthz   liveness\nGET  /readyz    readiness (503 while draining)\nGET  /statz     load, admission and cache statistics\nGET  /metrics   Prometheus text exposition of every instrument\nGET  /tracez    retained request traces (?id=<request id> for one span tree)\nGET  /debug/vars, /debug/pprof/\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.lim.RetryAfter()))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	snap := s.lim.Snapshot()
	st := Statz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Targets:       s.cfg.Targets,
		Draining:      s.draining.Load(),
		Inflight:      snap.Inflight,
		Queued:        snap.Queued,
		Capacity:      s.cfg.MaxInflight,
		QueueLimit:    s.cfg.MaxQueue,
		Requests:      s.requests.Value(),
		Accepted:      s.accepted.Value(),
		Shed:          s.shed.Value(),
		Expired:       s.expired.Value(),
		Failed:        s.failed.Value(),
		Limit:         snap.Limit,
		Pressure:      snap.Pressure,
		EstimateMs:    snap.EstimateSeconds * 1000,
		Evicted:       snap.Evicted,
		PressureLevel: s.level(),
		Cache:         s.cache.Stats(),
	}
	if s.breakers != nil {
		st.Breakers = s.breakers.States()
		bs := s.breakers.Snapshot()
		st.BreakerTrips, st.BreakerResets = bs.Trips, bs.Resets
	}
	if s.ring != nil {
		st.TraceCount, st.TraceCapacity = s.ring.Len(), s.ring.Cap()
	}
	st.Latency = latencyQuantiles(s.cfg.Registry.Snapshot())
	writeJSON(w, http.StatusOK, st)
}

// latencyQuantiles computes p50/p90/p99 in milliseconds for every
// duration histogram (names ending ".seconds") that has samples.
func latencyQuantiles(snap metrics.Snapshot) map[string]map[string]float64 {
	var out map[string]map[string]float64
	for name, h := range snap.Histograms {
		if !strings.HasSuffix(name, ".seconds") || h.Count == 0 {
			continue
		}
		if out == nil {
			out = map[string]map[string]float64{}
		}
		out[name] = map[string]float64{
			"p50": h.Quantile(0.50) * 1e3,
			"p90": h.Quantile(0.90) * 1e3,
			"p99": h.Quantile(0.99) * 1e3,
		}
	}
	return out
}

// handleMetrics renders the whole registry in the Prometheus text
// exposition format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WritePrometheus(w, s.cfg.Registry.Snapshot())
}

// handleTracez serves the trace ring: the summary list, or one full
// span tree with ?id=<request id>.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		writeJSON(w, http.StatusNotFound,
			&ErrorResponse{Error: "tracing disabled (start with a trace ring > 0)"})
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		t, ok := s.ring.Get(id)
		if !ok {
			writeJSON(w, http.StatusNotFound,
				&ErrorResponse{Error: "no retained trace with id " + strconv.Quote(id)})
			return
		}
		writeJSON(w, http.StatusOK, t)
		return
	}
	writeJSON(w, http.StatusOK, &Tracez{
		Capacity: s.ring.Cap(),
		SLOMs:    float64(s.ring.SLO()) / float64(time.Millisecond),
		Traces:   s.ring.List(),
	})
}

// reqState accumulates what the access log and the finished trace need
// to know about one request; serveCompile fills it as it goes.
type reqState struct {
	id       string
	outcome  string
	target   string
	strategy string
	queueMs  float64
	brownout int
	cache    string
}

// statusWriter captures the response status for the trace and the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handleCompile wraps one compile in its observability envelope —
// request identity, root trace span, access log — and delegates the
// actual work to serveCompile. Every answer, success or rejection,
// echoes the request ID, lands one access-log line, and (with tracing
// on) leaves one finished trace in the ring.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.requests.Inc()

	// Request identity: the client's ID when it is safe to echo and log
	// (trace.ValidID), a server-generated one otherwise. Set on the
	// answer before any handler path can write headers.
	id := r.Header.Get(RequestIDHeader)
	if !trace.ValidID(id) {
		id = trace.NewID()
	}
	w.Header().Set(RequestIDHeader, id)

	var root *trace.Span
	if s.ring != nil {
		root = trace.New(id, "compile")
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	st := &reqState{id: id, outcome: "ok"}
	defer s.finishRequest(st, root, sw, started)

	s.serveCompile(sw, r, started, root, st)
}

// finishRequest closes out one request: finishes the root span into the
// ring and emits the structured access-log line.
func (s *Server) finishRequest(st *reqState, root *trace.Span, sw *statusWriter, started time.Time) {
	s.ring.Add(root.Finish(st.outcome, sw.status))
	if s.cfg.AccessLog == nil {
		return
	}
	s.cfg.AccessLog.LogAttrs(context.Background(), slog.LevelInfo, "access",
		slog.String("id", st.id),
		slog.Int("status", sw.status),
		slog.Float64("latency_ms", float64(time.Since(started))/float64(time.Millisecond)),
		slog.String("outcome", st.outcome),
		slog.String("target", st.target),
		slog.String("strategy", st.strategy),
		slog.Float64("queue_ms", st.queueMs),
		slog.Int("brownout_level", st.brownout),
		slog.String("cache", st.cache),
	)
}

func (s *Server) serveCompile(w http.ResponseWriter, r *http.Request, started time.Time, root *trace.Span, st *reqState) {
	if r.Method != http.MethodPost {
		st.outcome = "bad-request"
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only", nil)
		return
	}
	if s.draining.Load() {
		st.outcome = "draining"
		s.reject(w, http.StatusServiceUnavailable, "draining", nil)
		return
	}

	var req CompileRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		st.outcome = "bad-request"
		s.fail(w, http.StatusBadRequest, "bad request body: "+err.Error(), nil)
		return
	}
	st.target = req.Target
	root.Attr("target", req.Target)
	m, ok := s.machines[req.Target]
	if !ok {
		st.outcome = "bad-request"
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("unknown target %q (serving %v)", req.Target, s.cfg.Targets), nil)
		return
	}
	stratName := req.Strategy
	if stratName == "" {
		stratName = "postpass"
	}
	kind, err := strategy.ParseKind(stratName)
	if err != nil {
		st.outcome = "bad-request"
		s.fail(w, http.StatusBadRequest, err.Error(), nil)
		return
	}

	// The request deadline: client header, clamped, or the default. It
	// propagates through context into the scheduler and allocator loops.
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil || ms <= 0 {
			st.outcome = "bad-request"
			s.fail(w, http.StatusBadRequest, "bad "+DeadlineHeader+" header", nil)
			return
		}
		deadline = min(time.Duration(ms)*time.Millisecond, s.cfg.MaxDeadline)
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Admission: a free slot admits immediately; otherwise wait in the
	// bounded queue, be shed (queue full, or doomed: remaining deadline
	// below the service estimate), or expire while queued.
	queued := time.Now()
	asp := root.Child("admission")
	release, dec := s.lim.Acquire(ctx, asp)
	asp.Attr("decision", dec.String())
	asp.End()
	wait := time.Since(queued)
	st.queueMs = float64(wait) / float64(time.Millisecond)
	s.queueSec.ObserveDuration(wait)
	switch dec {
	case overload.ShedFull:
		st.outcome = "shed-full"
		s.shed.Inc()
		s.reject(w, http.StatusTooManyRequests, "over capacity, retry later", nil)
		return
	case overload.ShedDoomed:
		st.outcome = "shed-doomed"
		s.shed.Inc()
		s.evictedC.Inc()
		s.reject(w, http.StatusTooManyRequests,
			"remaining deadline below the service estimate; shed instead of queued", nil)
		return
	case overload.Expired:
		st.outcome = "expired"
		s.expired.Inc()
		s.fail(w, http.StatusGatewayTimeout, "deadline expired while queued", nil)
		return
	}
	// The release feeds the AIMD/EWMA controller only when the request
	// reached the compile; pre-compile rejections (lowering errors,
	// circuit-broken strategies) return the slot without a sample, so a
	// flood of invalid requests can neither shrink the service estimate
	// (mass-evicting queued work as doomed) nor inflate the adaptive
	// limit past what real compiles sustain. The compile path below
	// upgrades outcome to Done or Breached.
	outcome := overload.Skipped
	defer func() { release(outcome) }()
	s.limitGauge.Set(int64(s.lim.Limit()))

	// Brownout: the level observed at admission decides how much
	// fidelity this request gets.
	lvl := 0
	if s.brown != nil {
		lvl = s.brown.Observe(s.lim.Pressure())
		s.levelGauge.Set(int64(lvl))
		if lvl > 0 {
			root.Event("brownout", "level", strconv.Itoa(lvl))
		}
	}
	st.brownout = lvl

	lsp := root.Child("lower")
	mod, status, lerr := s.lower(&req)
	lsp.End()
	if lerr != nil {
		st.outcome = "bad-request"
		s.failed.Inc()
		s.fail(w, status, lerr.Error(), nil)
		return
	}

	opts := req.Options
	if opts == nil {
		opts = &CompileOptions{}
	}
	effective, verifyOn, cacheOnly, notes := applyBrownout(lvl, kind, opts.Verify)

	// Circuit breaker: an open (target, strategy) reroutes down the
	// fallback chain to the first healthy rung.
	bkey := overload.Key(req.Target, effective.String())
	reroute := ""
	if s.breakers != nil {
		if allowed, _ := s.breakers.Allow(bkey); !allowed {
			orig := bkey
			found := false
			for _, rung := range strategy.FallbackChain(effective) {
				k := overload.Key(req.Target, rung.String())
				if ok, _ := s.breakers.Allow(k); ok {
					effective, bkey, found = rung, k, true
					break
				}
			}
			if !found {
				st.outcome = "circuit-open"
				s.failed.Inc()
				s.reject(w, http.StatusServiceUnavailable,
					"every strategy for this target is circuit-broken, retry later", nil)
				return
			}
			reroute = orig + " -> " + bkey
			root.Event("breaker.reroute", "from", orig, "to", bkey)
			s.rerouted.Inc()
		}
	}
	st.strategy = effective.String()
	root.Attr("strategy", effective.String())

	dcfg := driver.Config{
		Strategy:     effective,
		Workers:      s.cfg.Workers,
		Verify:       verifyOn,
		Strict:       opts.Strict,
		Budget:       s.cfg.Budget,
		LinearSelect: opts.LinearSelect,
		Cache:        s.cache,
		CacheOnly:    cacheOnly,
		Faults:       s.pipeFaults,
	}
	if opts.Workers > 0 {
		dcfg.Workers = opts.Workers
	}
	if opts.BudgetMs > 0 {
		dcfg.Budget = time.Duration(opts.BudgetMs) * time.Millisecond
	}

	csp := root.Child("compile")
	dcfg.Span = csp
	res, cerr := s.compileGuarded(ctx, m, mod, dcfg, bkey, csp)
	csp.End()
	// This request reached the compile: its service time is an SLO
	// sample, counted against the SLO when its deadline cut it off.
	if ctx.Err() != nil {
		outcome = overload.Breached
	} else {
		outcome = overload.Done
	}
	if s.breakers != nil {
		switch {
		case breakerRelevant(cerr):
			if s.breakers.Failure(bkey, root) {
				s.quarantine(&req, bkey, effective, dcfg, cerr)
			}
		case cacheOnly:
			// A cache-only attempt never exercised the pipeline: it can
			// neither close a half-open breaker nor reset a failure
			// streak. Return the probe slot without a verdict.
			s.breakers.Cancel(bkey)
		default:
			// Anything else — success, a user error, a client deadline —
			// resolves the attempt so a half-open probe can never wedge.
			s.breakers.Success(bkey)
		}
	}
	if cerr != nil {
		diags := toDiags(cerr)
		if cacheOnly && cacheOnlyMiss(cerr) {
			// Deepest brownout level: only warm functions are served.
			st.outcome = "shed-cache-only"
			s.shed.Inc()
			s.reject(w, http.StatusTooManyRequests,
				"brownout cache-only: not in cache, retry later", diags)
			return
		}
		if ctx.Err() != nil {
			// The request deadline (or a gone client) interrupted the
			// back end: the structured per-function diagnostics say
			// exactly which functions were cut off where.
			st.outcome = "expired"
			s.expired.Inc()
			s.fail(w, http.StatusGatewayTimeout, "deadline exceeded: "+ctx.Err().Error(), diags)
			return
		}
		st.outcome = "failed"
		s.failed.Inc()
		msg := "compile failed"
		if len(diags) == 0 {
			// Not a per-function diagnostic (a serve-level fault or
			// panic): the error itself is the only detail there is.
			msg = "compile failed: " + cerr.Error()
		}
		s.fail(w, http.StatusUnprocessableEntity, msg, diags)
		return
	}

	st.cache = cacheStatus(res.CacheHits, len(mod.Funcs))
	s.accepted.Inc()
	elapsed := time.Since(started)
	s.compileSec.ObserveDuration(elapsed)
	resp := &CompileResponse{
		Target:         req.Target,
		Strategy:       effective.String(),
		Assembly:       res.Prog.Print(),
		Stats:          res.Stats,
		RetrySeconds:   res.RetryTime.Seconds(),
		QueueMs:        st.queueMs,
		ElapsedMs:      float64(elapsed) / float64(time.Millisecond),
		BrownoutLevel:  lvl,
		Brownout:       notes,
		BreakerReroute: reroute,
		RequestID:      st.id,
		CacheHits:      res.CacheHits,
	}
	for _, d := range res.Degradations {
		resp.Degradations = append(resp.Degradations, d.String())
	}
	if res.Verify != nil {
		for _, f := range res.Verify.Findings {
			resp.VerifyFindings = append(resp.VerifyFindings, f.String())
		}
	}
	if len(res.PhaseTimes) > 0 {
		resp.PhaseSeconds = make(map[string]float64, len(res.PhaseTimes))
		for ph, d := range res.PhaseTimes {
			resp.PhaseSeconds[ph] = d.Seconds()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyBrownout maps a brownout level onto one request's fidelity:
// which strategy actually runs, whether verify runs, and whether only
// cache hits are served. The returned notes name each cut for the
// response body.
func applyBrownout(lvl int, kind strategy.Kind, verify bool) (strategy.Kind, bool, bool, []string) {
	var notes []string
	if lvl >= overload.LevelNoVerify && verify {
		verify = false
		notes = append(notes, "verify disabled")
	}
	switch {
	case lvl >= overload.LevelCacheOnly:
		// Cache keys include the strategy, so the REQUESTED strategy is
		// kept: that is what earlier full-fidelity compiles cached under.
		notes = append(notes, "cache-only")
		return kind, verify, true, notes
	case lvl >= overload.LevelSafe:
		if kind != strategy.Safe {
			notes = append(notes, "strategy forced "+kind.String()+" -> "+strategy.Safe.String())
			kind = strategy.Safe
		}
	case lvl >= overload.LevelCheapStrategy:
		if cheaper := capStrategy(kind); cheaper != kind {
			notes = append(notes, "strategy capped "+kind.String()+" -> "+cheaper.String())
			kind = cheaper
		}
	}
	return kind, verify, false, notes
}

// capStrategy caps expensive strategies at postpass (the cheap-strategy
// brownout level); already-cheap kinds pass through.
func capStrategy(k strategy.Kind) strategy.Kind {
	switch k {
	case strategy.RASE, strategy.IPS, strategy.Local:
		return strategy.Postpass
	}
	return k
}

// compileGuarded runs one admitted compile with the server-level fault
// site and last-resort panic isolation (the pipeline already isolates
// phase panics; this guard covers the serve site and anything outside
// the pipeline's recover).
func (s *Server) compileGuarded(ctx context.Context, m *mach.Machine, mod *ir.Module, dcfg driver.Config, key string, sp *trace.Span) (res *driver.Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &servePanicError{val: r}
		}
	}()
	if !s.cfg.Faults.Empty() {
		// The serve site under its own span: a hang-mode fault parks here
		// until the deadline, and the span is what shows it.
		fsp := sp.Child("serve")
		inj := faults.New(s.cfg.Faults, ctx, key, s.nextSeq(key), 0)
		ferr := inj.Fire("serve")
		fsp.End()
		if ferr != nil {
			fsp.Attr("error", ferr.Error())
			return nil, ferr
		}
	}
	return driver.CompileModuleCtx(ctx, m, mod, dcfg)
}

// cacheStatus classifies how much of a module the compilation cache
// served: "hit" (all functions), "partial", or "miss".
func cacheStatus(hits, funcs int) string {
	switch {
	case funcs > 0 && hits >= funcs:
		return "hit"
	case hits > 0:
		return "partial"
	}
	return "miss"
}

// servePanicError is a panic recovered at the serve level, wrapped so
// breakerRelevant can classify it.
type servePanicError struct{ val any }

func (e *servePanicError) Error() string {
	return fmt.Sprintf("panic while serving compile: %v", e.val)
}

// breakerRelevant classifies a compile failure for the circuit
// breaker: panics, budget exhaustions and injected server faults are
// service faults that count toward a trip; user errors, client
// deadlines and cache-only misses are not.
func breakerRelevant(err error) bool {
	if err == nil {
		return false
	}
	var sp *servePanicError
	if errors.As(err, &sp) {
		return true
	}
	var inj *faults.InjectedError
	if errors.As(err, &inj) {
		return true
	}
	var diags *pipeline.Diagnostics
	if errors.As(err, &diags) {
		for _, d := range diags.All() {
			var pe *pipeline.PanicError
			if errors.As(d.Err, &pe) {
				return true
			}
			if errors.Is(d.Err, budget.ErrExceeded) {
				return true
			}
			if errors.As(d.Err, &inj) {
				return true
			}
		}
	}
	return false
}

// cacheOnlyMiss reports whether a compile failed purely because the
// cache-only brownout level had no entries to serve.
func cacheOnlyMiss(err error) bool {
	var diags *pipeline.Diagnostics
	if !errors.As(err, &diags) {
		return false
	}
	for _, d := range diags.All() {
		if !errors.Is(d.Err, pipeline.ErrCacheOnlyMiss) {
			return false
		}
	}
	return true
}

// quarantine writes the replayable bundle for a breaker trip. The IL
// is re-lowered from the pristine request source at trip time: the
// compiled module was mutated in place by the glue transform, and
// under concurrency the tripping request cannot be predicted up front
// (other in-flight failures under the same key advance the streak), so
// capturing before the compile could leave the trip without a bundle.
func (s *Server) quarantine(req *CompileRequest, key string, kind strategy.Kind, dcfg driver.Config, reason error) {
	if s.cfg.QuarantineDir == "" {
		return
	}
	mod, _, err := s.lower(req)
	if err != nil {
		return // cannot happen: the same source lowered earlier this request
	}
	s.quarC.Inc()
	_, _ = overload.WriteBundle(s.cfg.QuarantineDir, &overload.Bundle{
		Key:      key,
		Target:   req.Target,
		Strategy: kind.String(),
		Reason:   reason.Error(),
		Failures: s.cfg.BreakerThreshold,
		Options: overload.BundleOptions{
			Workers:      dcfg.Workers,
			Verify:       dcfg.Verify,
			Strict:       dcfg.Strict,
			LinearSelect: dcfg.LinearSelect,
			BudgetMs:     dcfg.Budget.Milliseconds(),
		},
	}, iltext.Print(mod))
}

// reject answers a load-shedding status (429/503) with the computed
// Retry-After in both the header and the JSON body.
func (s *Server) reject(w http.ResponseWriter, status int, msg string, diags []Diag) {
	ra := s.lim.RetryAfter()
	secs := retryAfterSeconds(ra)
	w.Header().Set("Retry-After", secs)
	n, _ := strconv.Atoi(secs)
	writeJSON(w, status, &ErrorResponse{
		Error:             msg,
		Diagnostics:       diags,
		RetryAfterSeconds: float64(n),
		BrownoutLevel:     s.level(),
	})
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up, floor 1 (the header's granularity).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// lower turns request source into an IL module per the request
// language.
func (s *Server) lower(req *CompileRequest) (*ir.Module, int, error) {
	name := req.Filename
	switch req.Lang {
	case "", "c":
		if name == "" {
			name = "input.c"
		}
		mod, err := driver.Frontend(name, req.Source)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return mod, 0, nil
	case "il":
		if name == "" {
			name = "input.il"
		}
		mod, err := iltext.Parse(name, req.Source)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return mod, 0, nil
	}
	return nil, http.StatusBadRequest, fmt.Errorf("unknown lang %q (want \"c\" or \"il\")", req.Lang)
}

// toDiags flattens a back end error into wire diagnostics.
func toDiags(err error) []Diag {
	var diags *pipeline.Diagnostics
	if !errors.As(err, &diags) {
		return nil
	}
	all := diags.All()
	out := make([]Diag, len(all))
	for i, d := range all {
		out[i] = Diag{Func: d.Func, Phase: d.Phase, Error: d.Err.Error()}
	}
	return out
}

// fail answers a compile failure. A 504 (deadline expired) also
// carries the computed Retry-After hint and brownout level in the
// body: the same request may well succeed once load clears.
func (s *Server) fail(w http.ResponseWriter, status int, msg string, diags []Diag) {
	resp := &ErrorResponse{Error: msg, Diagnostics: diags}
	if status == http.StatusGatewayTimeout {
		n, _ := strconv.Atoi(retryAfterSeconds(s.lim.RetryAfter()))
		resp.RetryAfterSeconds = float64(n)
		resp.BrownoutLevel = s.level()
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
