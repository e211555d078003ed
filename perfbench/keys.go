package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"marion/internal/driver"
	"marion/internal/iltext"
	"marion/internal/livermore"
	"marion/internal/strategy"
)

// strategies are the five shipped code generation strategies of the
// paper's Tables 3 and 4 (the Safe fallback rung is not a user choice).
var strategies = []strategy.Kind{
	strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE, strategy.Local,
}

// source is one translation unit of the benchmark's inputs.
type source struct {
	Name   string // file name, e.g. "loop7.c" or "dot.c"
	C      string
	IL     string // textual IL of the same unit, made by the public front end
	Funcs  int    // functions in the unit
	Kernel *livermore.Kernel
}

// key is one (source, target, strategy) compile.
type key struct {
	Src      *source
	Target   string
	Strategy strategy.Kind
}

func (k *key) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Src.Name, k.Target, k.Strategy)
}

// loadSources returns the 14 Livermore kernels and, when withExamples
// is set, every examples/c source under root, each with its IL text.
func loadSources(root string, withExamples bool) ([]*source, error) {
	var out []*source
	for i := range livermore.Kernels {
		k := &livermore.Kernels[i]
		out = append(out, &source{Name: fmt.Sprintf("loop%d.c", k.ID), C: k.Source, Kernel: k})
	}
	if withExamples {
		files, err := filepath.Glob(filepath.Join(root, "examples", "c", "*.c"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no examples/c sources under %s", root)
		}
		sort.Strings(files)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			out = append(out, &source{Name: filepath.Base(f), C: string(b)})
		}
	}
	for _, s := range out {
		mod, err := driver.Frontend(s.Name, s.C)
		if err != nil {
			return nil, fmt.Errorf("front end %s: %w", s.Name, err)
		}
		s.Funcs = len(mod.Funcs)
		s.IL = iltext.Print(mod)
	}
	return out, nil
}

// makeKeys crosses sources with targets and strategies, in a fixed
// order (sources, then targets, then strategies).
func makeKeys(srcs []*source, targets []string) []*key {
	var out []*key
	for _, s := range srcs {
		for _, t := range targets {
			for _, k := range strategies {
				out = append(out, &key{Src: s, Target: t, Strategy: k})
			}
		}
	}
	return out
}

// order returns the keys of one round in the order the seed gives
// that round: a permutation that depends only on (seed, round).
func order(keys []*key, seed uint64, round int) []*key {
	out := append([]*key(nil), keys...)
	r := rand.New(rand.NewPCG(seed, uint64(round)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ilEvery sets the share of serve requests sent as textual IL: one in
// ilEvery. The mix follows the repository's own load generator,
// cmd/marionload, which sends C only, cycling uniformly through its
// sources, targets and strategies (as every round here sends every key
// once). No log or trace of real callers shows an IL share, so IL is
// kept to the smallest share that still exercises and measures the
// iltext layer: 51 requests of a 510-key round.
const ilEvery = 10

// lang says how the i-th request of a round is sent: as textual IL at
// every ilEvery-th position, as C everywhere else.
func lang(i int) string {
	if i%ilEvery == ilEvery-1 {
		return "il"
	}
	return "c"
}
