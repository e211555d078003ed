package main

import (
	"reflect"
	"regexp"
	"testing"
	"time"

	"marion/internal/trace"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for w := range workloads {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, nameRE)
		}
	}
}

// The metrics the command prints are the ones BENCHMARK.json declares,
// with the same units, and every workload it runs is declared.
func TestMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, spec []specMetric) {
		if len(defs) != len(spec) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if d.Name != spec[i].Name || d.Unit != spec[i].Unit {
				t.Errorf("%s %d: printed %s [%s], declared %s [%s]", kind, i, d.Name, d.Unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d run", len(spec.Workloads), len(workloads))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &trace.Trace{Spans: []trace.SpanRecord{
		{ID: 0, Parent: -1, Name: "request", StartUs: 0, DurUs: 10000},
		{ID: 1, Parent: 0, Name: "cc", StartUs: 1000, DurUs: 2000},
		{ID: 2, Parent: 0, Name: "library", StartUs: 2000, DurUs: 4000}, // overlaps cc
		{ID: 3, Parent: 2, Name: "fn:kern", StartUs: 2500, DurUs: 3000},
		{ID: 4, Parent: 3, Name: "cache", StartUs: 2500, DurUs: 500, Attrs: []trace.Attr{{Key: "result", Value: "hit"}}},
		{ID: 5, Parent: 3, Name: "cache", StartUs: 3000, DurUs: 1000, Attrs: []trace.Attr{{Key: "result", Value: "miss"}}},
	}}
	got := selfTimes([]*trace.Trace{tr, tr})
	ms := time.Millisecond
	want := map[string]time.Duration{
		"request":    2 * 5 * ms, // 10 minus the union 1..6
		"cc":         2 * 2 * ms,
		"library":    2 * 1 * ms, // 4 minus fn:kern's 3
		"fn":         2 * 1500 * time.Microsecond,
		"cache hit":  2 * 500 * time.Microsecond,
		"cache miss": 2 * 1 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSummarizeTakesRoundMedians(t *testing.T) {
	var rounds []roundStat
	for i, rate := range []float64{100, 100, 100, 100, 10} { // one disturbed round
		lats := seq(200)
		if i == 4 {
			for j := range lats {
				lats[j] *= 10
			}
		}
		rounds = append(rounds, roundStat{funcs: int(rate), secs: 1, lats: lats})
	}
	o := newOutcome()
	if err := summarize(o, rounds); err != nil {
		t.Fatal(err)
	}
	if o.e2e["funcs_per_s"] != 100 || o.e2e["p50_ms"] != 100 || o.e2e["p90_ms"] != 180 {
		t.Fatalf("summary %v, want 100/s, p50 100, p90 180", o.e2e)
	}
	if o.info["latency_samples"] != 1000 {
		t.Fatalf("latency samples %v, want 1000", o.info["latency_samples"])
	}
	if err := summarize(o, []roundStat{{funcs: 1, secs: 1, lats: seq(99)}}); err == nil {
		t.Fatal("a round of 99 operations gave a p90")
	}
}
