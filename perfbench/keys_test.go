package main

import (
	"reflect"
	"testing"

	"marion/internal/livermore"
	"marion/internal/targets"
)

func testKeys() []*key {
	var srcs []*source
	for i := range livermore.Kernels {
		srcs = append(srcs, &source{Name: livermore.Kernels[i].Name, Kernel: &livermore.Kernels[i]})
	}
	return makeKeys(srcs, targets.Names())
}

func names(ks []*key) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.String()
	}
	return out
}

func TestOrderReproducesExactly(t *testing.T) {
	keys := testKeys()
	if len(keys) != 14*6*5 {
		t.Fatalf("%d keys, want the 420 of the Table 3/4 matrix", len(keys))
	}
	a, b := names(order(keys, 7, 3)), names(order(keys, 7, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and round gave two orders")
	}
	if reflect.DeepEqual(a, names(order(keys, 8, 3))) {
		t.Fatal("another seed gave the same order")
	}
	if reflect.DeepEqual(a, names(order(keys, 7, 4))) {
		t.Fatal("another round gave the same order")
	}
	// Each round is a permutation: every key exactly once.
	seen := map[string]int{}
	for _, n := range a {
		seen[n]++
	}
	if len(seen) != len(keys) {
		t.Fatalf("round holds %d distinct keys, want %d", len(seen), len(keys))
	}
}

func TestLangOneInTen(t *testing.T) {
	il := 0
	for i := 0; i < 510; i++ {
		if lang(i) == "il" {
			il++
		}
	}
	if il != 51 {
		t.Fatalf("%d of 510 requests sent as IL, want 51", il)
	}
}

func TestLoadSourcesIL(t *testing.T) {
	srcs, err := loadSources("..", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 15 {
		t.Fatalf("%d sources, want the 14 kernels plus examples/c", len(srcs))
	}
	for _, s := range srcs {
		if s.IL == "" || s.Funcs == 0 {
			t.Errorf("%s: no IL text or no functions", s.Name)
		}
	}
}
