package choice

import (
	"math"

	"inputtune/internal/rng"
)

// MutationWeights assigns relative frequencies to the six mutation
// operators. The zero value means "use defaults".
type MutationWeights struct {
	PerturbTunable float64
	ResetTunable   float64
	MutateCutoff   float64
	MutateChoice   float64
	InsertLevel    float64
	DeleteLevel    float64
}

// DefaultMutationWeights favours cheap local moves, matching the
// PetaBricks-style tuner's historical mix.
func DefaultMutationWeights() MutationWeights {
	return MutationWeights{
		PerturbTunable: 3, ResetTunable: 1,
		MutateCutoff: 2, MutateChoice: 3,
		InsertLevel: 1, DeleteLevel: 1,
	}
}

func (w MutationWeights) isZero() bool {
	return w == MutationWeights{}
}

// Mutate returns a mutated copy of c with default options. One of several
// mutation operators is applied, mirroring the PetaBricks autotuner's
// structural mutations:
//
//   - perturb a tunable (log-normal scaling for ints, Gaussian for floats)
//   - reset a tunable uniformly at random
//   - rescale a selector cutoff
//   - change the algorithm chosen at a selector level (or the else branch)
//   - insert a new selector level
//   - delete a selector level
//
// When the space carries a dependency graph, the two tunable operators
// only ever touch genes live under c's selectors. The result is always
// valid with respect to the space.
func (s *Space) Mutate(c *Config, r *rng.RNG) *Config {
	return s.MutateWith(c, r, MutationWeights{})
}

// MutateWith is Mutate with an explicit operator mix; the zero value
// selects DefaultMutationWeights.
func (s *Space) MutateWith(c *Config, r *rng.RNG, w MutationWeights) *Config {
	if w.isZero() {
		w = DefaultMutationWeights()
	}
	out := c.Clone()
	// Restrict tunable operators to the live subspace.
	tunables := make([]int, 0, len(s.Tunables))
	if s.HasDependencies() {
		for i, l := range s.LiveGenes(out) {
			if l {
				tunables = append(tunables, i)
			}
		}
	} else {
		for i := range s.Tunables {
			tunables = append(tunables, i)
		}
	}
	// Collect applicable operator ids; weights favour cheap local moves.
	type op struct {
		weight float64
		apply  func()
	}
	var ops []op
	if len(tunables) > 0 {
		ops = append(ops,
			op{w.PerturbTunable, func() { s.perturbTunable(out, r, tunables) }},
			op{w.ResetTunable, func() { s.resetTunable(out, r, tunables) }},
		)
	}
	if len(s.Sites) > 0 {
		ops = append(ops,
			op{w.MutateCutoff, func() { s.mutateCutoff(out, r) }},
			op{w.MutateChoice, func() { s.mutateChoice(out, r) }},
			op{w.InsertLevel, func() { s.insertLevel(out, r) }},
			op{w.DeleteLevel, func() { s.deleteLevel(out, r) }},
		)
	}
	if len(ops) == 0 {
		return out
	}
	weights := make([]float64, len(ops))
	for i, o := range ops {
		weights[i] = o.weight
	}
	ops[r.Choice(weights)].apply()
	return out
}

func (s *Space) perturbTunable(c *Config, r *rng.RNG, idxs []int) {
	i := idxs[r.Intn(len(idxs))]
	t := s.Tunables[i]
	v := c.Values[i]
	if t.Kind == IntKind {
		// Multiplicative jitter works across magnitude scales (cutoff-like
		// tunables), with additive fallback near zero.
		factor := math.Exp(r.Norm(0, 0.5))
		nv := v * factor
		if math.Abs(nv-v) < 1 {
			nv = v + float64(r.IntRange(-2, 2))
		}
		c.Values[i] = t.quantize(nv)
	} else {
		span := t.Max - t.Min
		c.Values[i] = t.quantize(v + r.Norm(0, span/10))
	}
}

func (s *Space) resetTunable(c *Config, r *rng.RNG, idxs []int) {
	i := idxs[r.Intn(len(idxs))]
	t := s.Tunables[i]
	c.Values[i] = t.quantize(r.Range(t.Min, t.Max))
}

func (s *Space) mutateCutoff(c *Config, r *rng.RNG) {
	i := r.Intn(len(s.Sites))
	sel := &c.Selectors[i]
	if len(sel.Levels) == 0 {
		s.insertLevel(c, r)
		return
	}
	l := r.Intn(len(sel.Levels))
	factor := math.Exp(r.Norm(0, 0.7))
	sel.Levels[l].Cutoff = int(float64(sel.Levels[l].Cutoff) * factor)
	if sel.Levels[l].Cutoff < 2 {
		sel.Levels[l].Cutoff = 2
	}
	sel.normalize(s.MaxSelectorLevels, s.MaxCutoff, len(s.Sites[i].Alternatives))
}

func (s *Space) mutateChoice(c *Config, r *rng.RNG) {
	i := r.Intn(len(s.Sites))
	sel := &c.Selectors[i]
	nAlts := len(s.Sites[i].Alternatives)
	if nAlts < 2 {
		return
	}
	// Pick a slot: levels plus the else branch.
	slot := r.Intn(len(sel.Levels) + 1)
	if slot == len(sel.Levels) {
		sel.Else = differentChoice(sel.Else, nAlts, r)
	} else {
		sel.Levels[slot].Choice = differentChoice(sel.Levels[slot].Choice, nAlts, r)
	}
}

func differentChoice(cur, n int, r *rng.RNG) int {
	if n < 2 {
		return cur
	}
	nv := r.Intn(n - 1)
	if nv >= cur {
		nv++
	}
	return nv
}

func (s *Space) insertLevel(c *Config, r *rng.RNG) {
	i := r.Intn(len(s.Sites))
	sel := &c.Selectors[i]
	if len(sel.Levels) >= s.MaxSelectorLevels {
		return
	}
	nAlts := len(s.Sites[i].Alternatives)
	sel.Levels = append(sel.Levels, Level{
		Cutoff: s.randomCutoff(r),
		Choice: r.Intn(nAlts),
	})
	sel.normalize(s.MaxSelectorLevels, s.MaxCutoff, nAlts)
}

func (s *Space) deleteLevel(c *Config, r *rng.RNG) {
	i := r.Intn(len(s.Sites))
	sel := &c.Selectors[i]
	if len(sel.Levels) == 0 {
		return
	}
	l := r.Intn(len(sel.Levels))
	sel.Levels = append(sel.Levels[:l], sel.Levels[l+1:]...)
}

// Crossover returns a child combining a and b: uniform crossover over
// selectors (whole-selector granularity) and tunables (blend or pick).
// With a dependency graph, only genes live under the child's recombined
// selectors are recombined; dead genes inherit a's values untouched.
func (s *Space) Crossover(a, b *Config, r *rng.RNG) *Config {
	child := a.Clone()
	for i := range child.Selectors {
		if r.Bool() {
			child.Selectors[i] = Selector{
				Levels: append([]Level(nil), b.Selectors[i].Levels...),
				Else:   b.Selectors[i].Else,
			}
		}
	}
	var live []bool
	if s.HasDependencies() {
		live = s.LiveGenes(child)
	}
	for i := range child.Values {
		if live != nil && !live[i] {
			continue // dead under the child's selectors: no draw, keep a's gene
		}
		t := s.Tunables[i]
		switch r.Intn(3) {
		case 0: // keep a
		case 1: // take b
			child.Values[i] = b.Values[i]
		default: // blend
			alpha := r.Float64()
			child.Values[i] = t.quantize(alpha*a.Values[i] + (1-alpha)*b.Values[i])
		}
	}
	return child
}
