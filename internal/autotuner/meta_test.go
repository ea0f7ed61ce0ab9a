package autotuner

import (
	"sync/atomic"
	"testing"

	"inputtune/internal/choice"
)

// metaSpace is a guarded space where the optimum hides behind a selector
// alternative: tunable 0 matters only under alternative 1.
func metaSpace() *choice.Space {
	s := choice.NewSpace()
	s.AddSite("algo", "a", "b", "c")
	s.AddInt("k", 0, 100, 50)
	s.AddFloat("x", 0, 1, 0.5)
	s.DependsOn(0, 0, 1) // k <- {b}
	return s
}

// metaEval rewards alternative b with k near 70 and x near 0.3; under a or
// c only x matters, with a worse floor. Deterministic in the config.
func metaEval(cfg *choice.Config) Result {
	alt := cfg.Decide(0, 1000)
	k := cfg.Int(0)
	x := cfg.Float(1)
	t := 10 + 5*abs(x-0.3)
	if alt == 1 {
		t = 1 + 0.1*abs(float64(k)-70) + 5*abs(x-0.3)
	}
	return Result{Time: t, Accuracy: 1}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestMetaTuneRespectsBudget(t *testing.T) {
	for _, budget := range []int{8, 20, 50} {
		var evals int64
		_, st := MetaTune(MetaOptions{
			Options: Options{
				Space: metaSpace(),
				Eval: func(cfg *choice.Config) Result {
					atomic.AddInt64(&evals, 1)
					return metaEval(cfg)
				},
				Population: 8, Generations: 6, Seed: 7,
			},
			Budget: budget,
		})
		if int(evals) > budget {
			t.Errorf("budget %d: %d actual evaluations", budget, evals)
		}
		if st.Evaluations != int(evals) {
			t.Errorf("budget %d: Stats.Evaluations = %d, counted %d", budget, st.Evaluations, evals)
		}
		if st.Budget != budget {
			t.Errorf("budget %d: Stats.Budget = %d", budget, st.Budget)
		}
	}
}

func TestMetaTuneDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) (string, MetaStats) {
		cfg, st := MetaTune(MetaOptions{
			Options: Options{
				Space: metaSpace(), Eval: metaEval,
				Population: 8, Generations: 6, Seed: seed,
			},
			Budget: 40,
		})
		return cfg.Key(), st
	}
	k1, s1 := run(11)
	k2, s2 := run(11)
	if k1 != k2 || s1 != s2 {
		t.Fatal("MetaTune not deterministic for equal seeds")
	}
	// Parallel evaluation must not change the result either.
	cfg3, _ := MetaTune(MetaOptions{
		Options: Options{
			Space: metaSpace(), Eval: metaEval,
			Population: 8, Generations: 6, Seed: 11, Parallel: true,
		},
		Budget: 40,
	})
	if cfg3.Key() != k1 {
		t.Fatal("parallel MetaTune diverges from serial")
	}
}

// TestMetaTuneBeatsFlatBudget: on the guarded space the meta-loop reaches
// the optimum's basin while spending fewer evaluations than a single-run
// GA's request, FlatCost, and than a plain Tune run actually spends.
func TestMetaTuneBeatsFlatBudget(t *testing.T) {
	var tuneEvals int64
	tuneCfg, _ := Tune(Options{
		Space: metaSpace(),
		Eval: func(cfg *choice.Config) Result {
			atomic.AddInt64(&tuneEvals, 1)
			return metaEval(cfg)
		},
		Population: 10, Generations: 8, Seed: 3,
	})

	var metaEvals int64
	metaCfg, st := MetaTune(MetaOptions{
		Options: Options{
			Space: metaSpace(),
			Eval: func(cfg *choice.Config) Result {
				atomic.AddInt64(&metaEvals, 1)
				return metaEval(cfg)
			},
			Population: 10, Generations: 8, Seed: 3,
		},
	})
	if flat := int64(FlatCost(10, 8)); metaEvals >= flat {
		t.Fatalf("meta %d evals, FlatCost %d: no reduction", metaEvals, flat)
	}
	if metaEvals >= tuneEvals {
		t.Fatalf("meta %d evals, Tune %d: no reduction", metaEvals, tuneEvals)
	}
	// Both must land in the guarded branch's basin (time well under the
	// 10+ floor of the unguarded alternatives); exact ranking at a given
	// budget is landscape noise, basin discovery is the property.
	for name, cfg := range map[string]*choice.Config{"meta": metaCfg, "tune": tuneCfg} {
		if tm := metaEval(cfg).Time; tm > 5 {
			t.Fatalf("%s result %.3f missed the optimum branch", name, tm)
		}
	}
	if st.Trials < 1 {
		t.Fatal("no trials recorded")
	}
}

// TestMetaTuneCollapsesDeadGenes: with a guarded space the shared memo must
// report dead-gene collapses — structurally distinct genomes answered by
// one canonical representative.
func TestMetaTuneCollapsesDeadGenes(t *testing.T) {
	_, st := MetaTune(MetaOptions{
		Options: Options{
			Space: metaSpace(), Eval: metaEval,
			Population: 10, Generations: 8, Seed: 5,
		},
	})
	if st.DeadGeneCollapses == 0 {
		t.Fatal("no dead-gene collapses on a guarded space")
	}
	if st.Evaluations+st.CacheHits < st.Evaluations {
		t.Fatal("inconsistent accounting")
	}
}

// TestMetaTuneReturnsCanonicalConfig: the returned best is its own
// canonical representative (dead genes at defaults, selectors minimal).
func TestMetaTuneReturnsCanonicalConfig(t *testing.T) {
	s := metaSpace()
	cfg, _ := MetaTune(MetaOptions{
		Options: Options{Space: s, Eval: metaEval, Population: 10, Generations: 8, Seed: 9},
	})
	if cfg.Key() != s.Canonicalize(cfg).Key() {
		t.Fatal("MetaTune returned a non-canonical config")
	}
}

func TestFlatCost(t *testing.T) {
	// pop 10, gens 8, default elites 4: 10 + 8*(10-4).
	if got := FlatCost(10, 8); got != 58 {
		t.Fatalf("FlatCost(10, 8) = %d", got)
	}
	// Defaults: pop 24, gens 24, elites 4.
	if got := FlatCost(0, 0); got != 24+24*20 {
		t.Fatalf("FlatCost(0, 0) = %d", got)
	}
}
