package exp

import (
	"math"
	"testing"

	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/choice"
	"inputtune/internal/core"
	"inputtune/internal/rng"
)

// randomAllGenes draws a random configuration and then redraws every
// tunable, live or dead, so dead genes start off their defaults too.
func randomAllGenes(space *choice.Space, r *rng.RNG) *choice.Config {
	c := space.RandomConfig(r)
	for i, t := range space.Tunables {
		v := r.Range(t.Min, t.Max)
		if t.Kind == choice.IntKind {
			v = math.Round(v)
		}
		c.Values[i] = v
	}
	return c
}

// TestDeadGeneMutationNeverChangesEvaluation is the end-to-end property
// behind LiveKey-based dedup: for the real benchmark programs that declare
// selector→tunable dependencies, changing a dead gene's value must leave
// the measured time AND accuracy of every input bit-identical. If this
// fails, a DependsOn declaration claims a tunable is dead under a selector
// that in fact reads it, and the tuner's collapse would merge genuinely
// different behaviours.
func TestDeadGeneMutationNeverChangesEvaluation(t *testing.T) {
	cases := []struct {
		prog   core.Program
		inputs []core.Input
	}{
		{sortbench.New(), sortInputs(sortbench.MixOptions{Count: 6, Seed: 2, MaxSize: 256})},
		{poisson2d.New(), poissonInputs(poisson2d.MixOptions{Count: 4, Seed: 2})},
		{helmholtz3d.New(), helmholtzInputs(helmholtz3d.MixOptions{Count: 3, Seed: 2})},
	}
	for _, tc := range cases {
		t.Run(tc.prog.Name(), func(t *testing.T) {
			space := tc.prog.Space()
			if !space.HasDependencies() {
				t.Fatalf("%s: no declared dependencies", tc.prog.Name())
			}
			r := rng.New(23)
			varied := 0
			for trial := 0; trial < 40; trial++ {
				cfg := randomAllGenes(space, r)
				live := space.LiveGenes(cfg)
				for g, isLive := range live {
					if isLive {
						continue
					}
					v := cfg.Clone()
					tun := space.Tunables[g]
					for _, cand := range []float64{tun.Min, tun.Max, (tun.Min + tun.Max) / 2} {
						v.Values[g] = cand
						if err := space.Validate(v); err != nil || v.Values[g] == cfg.Values[g] {
							continue
						}
						varied++
						for ii, in := range tc.inputs {
							t0, a0 := core.Measure(tc.prog, cfg, in)
							t1, a1 := core.Measure(tc.prog, v, in)
							if t0 != t1 || a0 != a1 {
								t.Fatalf("dead gene %s changed evaluation on input %d: (%v,%v) vs (%v,%v)\n cfg: %s\n var: %s",
									tun.Name, ii, t0, a0, t1, a1, cfg, v)
							}
						}
					}
				}
			}
			if varied == 0 {
				t.Fatal("no dead-gene variants exercised")
			}
		})
	}
}
