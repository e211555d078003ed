package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// 100 samples: p90 is the 90th, with exactly ten beyond it.
	if v, ok := percentile(seq(100), 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	// 99 samples: p90 is the 90th with nine beyond: no tail.
	if _, ok := percentile(seq(99), 0.90); ok {
		t.Fatal("p90 of 99 samples reported with nine beyond it")
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, _ := percentile(seq(5), 0.5); v != 3 {
		t.Fatalf("p50 of 1..5 = %v, want 3", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestTailPicksHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}} {
		if got, _ := tail(seq(c.n)); got != c.want {
			t.Errorf("tail of %d samples = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 2, 5}, [3]float64{1.25, 3, 4.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
}

func TestCompareMetric(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	// Every run 10% faster: a gain.
	faster := make([]float64, len(parent))
	for i, v := range parent {
		faster[i] = v * 1.1
	}
	if v := compareMetric(parent, faster, true, 0.05); !v.Gain || v.Wins != 10 || v.Worse {
		t.Errorf("uniform 10%% gain judged %+v", v)
	}
	// Wins 8 of 10: not a gain, however large the gap.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 50, 50
	if v := compareMetric(parent, mixed, true, 0.05); v.Gain || v.Wins != 8 {
		t.Errorf("8/10 wins judged %+v", v)
	}
	// Wins every pair but by less than the parent's IQR: not a gain.
	tiny := make([]float64, len(parent))
	for i, v := range parent {
		tiny[i] = v + 0.5
	}
	if v := compareMetric(parent, tiny, true, 0.05); v.Gain {
		t.Errorf("gain inside the parent's spread judged %+v", v)
	}
	// Lower is better: 20% slower latency is worse beyond a 10% bound.
	slower := make([]float64, len(parent))
	for i, v := range parent {
		slower[i] = v * 1.2
	}
	if v := compareMetric(parent, slower, false, 0.1); !v.Worse || v.Gain || v.Losses != 10 {
		t.Errorf("20%% slower latency judged %+v", v)
	}
	// Within the bound: neither gain nor worse.
	if v := compareMetric(parent, tiny, false, 0.1); v.Worse {
		t.Errorf("0.5%% move judged worse: %+v", v)
	}
	// A parent spread wider than the bound leaves "unchanged" unresolved.
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if v := compareMetric(noisy, noisy, true, 0.1); !v.Unresolved {
		t.Errorf("noisy parent judged resolved: %+v", v)
	}
}

func TestCompareSetsFlagsBoundBreach(t *testing.T) {
	spec := &benchSpec{}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	spec.EndToEnd = []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}
	mk := func(vals ...float64) []record {
		var out []record
		for _, v := range vals {
			out = append(out, record{Workload: "w", result: result{Metrics: map[string]metric{"p50_ms": {Value: v, Unit: "ms"}}}})
		}
		return out
	}
	var buf bytes.Buffer
	if compareSets(&buf, spec, mk(10, 10, 10, 10), mk(10.2, 10.1, 10, 10.3)) {
		t.Fatalf("a 2%% move flagged beyond a 10%% bound:\n%s", buf.String())
	}
	buf.Reset()
	if !compareSets(&buf, spec, mk(10, 10, 10, 10), mk(12, 12, 12, 12)) || !strings.Contains(buf.String(), "WORSE") {
		t.Fatalf("a 20%% slowdown not flagged:\n%s", buf.String())
	}
}
