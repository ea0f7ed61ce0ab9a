package choice

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"inputtune/internal/rng"
)

// Site is an either…or statement: a named choice point offering a fixed set
// of algorithm alternatives. Each recursive invocation of the site consults
// the selector in the active Config, so a single Config realises a
// polyalgorithm.
type Site struct {
	Name         string
	Alternatives []string
}

// TunableKind distinguishes integer- and real-valued tunables.
type TunableKind int

const (
	// IntKind tunables take integer values in [Min, Max].
	IntKind TunableKind = iota
	// FloatKind tunables take real values in [Min, Max].
	FloatKind
)

// Tunable is a scalar knob exposed to the autotuner, mirroring the paper's
// `tunable` keyword (e.g. `tunable double level (0.0, 1.0)`).
type Tunable struct {
	Name string
	Kind TunableKind
	Min  float64
	Max  float64
	// Default is the initial value; it is clamped into [Min, Max].
	Default float64
}

// Space is the set of choice sites and tunables of one program.
type Space struct {
	Sites    []Site
	Tunables []Tunable
	// MaxSelectorLevels bounds the decision-list depth (default 3).
	MaxSelectorLevels int
	// MaxCutoff bounds selector thresholds (default 1<<20).
	MaxCutoff int
	// guards holds the selector→tunable dependency graph (see deps.go);
	// nil entries mean the tunable is always live.
	guards []*guard
}

// NewSpace returns an empty space with default limits.
func NewSpace() *Space {
	return &Space{MaxSelectorLevels: 3, MaxCutoff: 1 << 20}
}

// AddSite appends a choice site and returns its index.
func (s *Space) AddSite(name string, alternatives ...string) int {
	if len(alternatives) < 1 {
		panic("choice: site needs at least one alternative")
	}
	s.Sites = append(s.Sites, Site{Name: name, Alternatives: alternatives})
	return len(s.Sites) - 1
}

// AddInt appends an integer tunable and returns its index.
func (s *Space) AddInt(name string, min, max, def int) int {
	if max < min {
		panic("choice: tunable max < min")
	}
	s.Tunables = append(s.Tunables, Tunable{
		Name: name, Kind: IntKind, Min: float64(min), Max: float64(max),
		Default: clamp(float64(def), float64(min), float64(max)),
	})
	return len(s.Tunables) - 1
}

// AddFloat appends a real tunable and returns its index.
func (s *Space) AddFloat(name string, min, max, def float64) int {
	if max < min {
		panic("choice: tunable max < min")
	}
	s.Tunables = append(s.Tunables, Tunable{
		Name: name, Kind: FloatKind, Min: min, Max: max,
		Default: clamp(def, min, max),
	})
	return len(s.Tunables) - 1
}

// SiteIndex returns the index of the named site, or -1.
func (s *Space) SiteIndex(name string) int {
	for i, site := range s.Sites {
		if site.Name == name {
			return i
		}
	}
	return -1
}

// TunableIndex returns the index of the named tunable, or -1.
func (s *Space) TunableIndex(name string) int {
	for i, t := range s.Tunables {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// SizeDescription returns a human-readable magnitude of the search space,
// counting selector structures and discretised tunables.
func (s *Space) SizeDescription() string {
	log10 := 0.0
	for _, site := range s.Sites {
		// Each selector level chooses an alternative and a cutoff.
		levels := float64(s.MaxSelectorLevels)
		log10 += levels * (log10of(float64(len(site.Alternatives))) + log10of(float64(s.MaxCutoff)))
	}
	for _, t := range s.Tunables {
		if t.Kind == IntKind {
			log10 += log10of(t.Max - t.Min + 1)
		} else {
			log10 += 3 // ~1000 discretisation steps
		}
	}
	return fmt.Sprintf("~10^%.0f configurations", log10)
}

func log10of(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log10(x)
}

// Level is one decision-list entry: if n < Cutoff use Choice.
type Level struct {
	Cutoff int `json:"cutoff"`
	Choice int `json:"choice"`
}

// Selector is a PetaBricks-style polyalgorithm selector (Figure 2): an
// ordered decision list over the current problem size. Levels are kept
// sorted by ascending cutoff; Else applies when n is at least every cutoff.
type Selector struct {
	Levels []Level `json:"levels"`
	Else   int     `json:"else"`
}

// Decide returns the alternative index for problem size n.
func (sel *Selector) Decide(n int) int {
	for _, l := range sel.Levels {
		if n < l.Cutoff {
			return l.Choice
		}
	}
	return sel.Else
}

// Describe renders the selector as the paper's Figure 2 decision chain,
// e.g. "n<600: InsertionSort; n<1420: QuickSort; else: MergeSort".
func (sel *Selector) Describe(alternatives []string) string {
	name := func(i int) string {
		if i >= 0 && i < len(alternatives) {
			return alternatives[i]
		}
		return fmt.Sprintf("alt%d", i)
	}
	out := ""
	for _, l := range sel.Levels {
		out += fmt.Sprintf("n<%d: %s; ", l.Cutoff, name(l.Choice))
	}
	return out + "else: " + name(sel.Else)
}

// DescribeConfig renders every selector of c against the space's site
// alternatives plus the tunable values — the human-readable form of a
// landmark configuration.
func (s *Space) DescribeConfig(c *Config) string {
	out := ""
	for i, site := range s.Sites {
		if i > 0 {
			out += " | "
		}
		out += site.Name + "{" + c.Selectors[i].Describe(site.Alternatives) + "}"
	}
	for i, t := range s.Tunables {
		if t.Kind == IntKind {
			out += fmt.Sprintf(" %s=%d", t.Name, c.Int(i))
		} else {
			out += fmt.Sprintf(" %s=%.3g", t.Name, c.Float(i))
		}
	}
	return out
}

// normalize sorts levels by cutoff and drops duplicates/cap violations.
func (sel *Selector) normalize(maxLevels, maxCutoff, numAlts int) {
	for i := range sel.Levels {
		if sel.Levels[i].Cutoff < 2 {
			sel.Levels[i].Cutoff = 2
		}
		if sel.Levels[i].Cutoff > maxCutoff {
			sel.Levels[i].Cutoff = maxCutoff
		}
		sel.Levels[i].Choice = clampInt(sel.Levels[i].Choice, 0, numAlts-1)
	}
	sort.Slice(sel.Levels, func(i, j int) bool { return sel.Levels[i].Cutoff < sel.Levels[j].Cutoff })
	// Remove duplicate cutoffs (keep the first).
	out := sel.Levels[:0]
	lastCut := -1
	for _, l := range sel.Levels {
		if l.Cutoff != lastCut {
			out = append(out, l)
			lastCut = l.Cutoff
		}
	}
	sel.Levels = out
	if len(sel.Levels) > maxLevels {
		sel.Levels = sel.Levels[:maxLevels]
	}
	sel.Else = clampInt(sel.Else, 0, numAlts-1)
}

// Config is one point in a Space: a selector per site plus a value per
// tunable. Configs serialise to JSON for storage alongside experiment
// results.
type Config struct {
	Selectors []Selector `json:"selectors"`
	Values    []float64  `json:"values"`
}

// DefaultConfig returns the configuration with single-choice selectors
// (always alternative 0) and default tunable values.
func (s *Space) DefaultConfig() *Config {
	c := &Config{
		Selectors: make([]Selector, len(s.Sites)),
		Values:    make([]float64, len(s.Tunables)),
	}
	for i, t := range s.Tunables {
		c.Values[i] = t.quantize(t.Default)
	}
	return c
}

// RandomConfig draws a uniformly random valid configuration. When the
// space carries a dependency graph, only live tunables are drawn; dead
// genes keep their defaults so the draw samples the live subspace.
func (s *Space) RandomConfig(r *rng.RNG) *Config {
	c := s.DefaultConfig()
	for i := range c.Selectors {
		nAlts := len(s.Sites[i].Alternatives)
		nLevels := r.Intn(s.MaxSelectorLevels + 1)
		for l := 0; l < nLevels; l++ {
			c.Selectors[i].Levels = append(c.Selectors[i].Levels, Level{
				Cutoff: s.randomCutoff(r),
				Choice: r.Intn(nAlts),
			})
		}
		c.Selectors[i].Else = r.Intn(nAlts)
		c.Selectors[i].normalize(s.MaxSelectorLevels, s.MaxCutoff, nAlts)
	}
	var live []bool
	if s.HasDependencies() {
		live = s.LiveGenes(c)
	}
	for i, t := range s.Tunables {
		if live != nil && !live[i] {
			continue // dead gene: keep the quantized default, burn no draw
		}
		c.Values[i] = t.quantize(r.Range(t.Min, t.Max))
	}
	return c
}

// randomCutoff draws log-uniformly from [2, MaxCutoff] so that small
// cutoffs (where algorithm crossovers actually live) are well represented.
func (s *Space) randomCutoff(r *rng.RNG) int {
	lo, hi := math.Log(2), math.Log(float64(s.MaxCutoff))
	return int(math.Exp(r.Range(lo, hi)))
}

// Clone returns a deep copy of c.
func (c *Config) Clone() *Config {
	out := &Config{
		Selectors: make([]Selector, len(c.Selectors)),
		Values:    append([]float64(nil), c.Values...),
	}
	for i, sel := range c.Selectors {
		out.Selectors[i] = Selector{
			Levels: append([]Level(nil), sel.Levels...),
			Else:   sel.Else,
		}
	}
	return out
}

// Key returns a canonical fingerprint of c: two configurations have equal
// keys if and only if they are structurally identical (same selector
// decision lists and same tunable values). Tunable values are hashed as
// stored, i.e. after the space's per-kind quantization, so an integer
// tunable reached via different float intermediates fingerprints
// identically. The encoding is injective (length-prefixed, fixed-width
// floats), so distinct configurations can never collide — the property the
// engine's measurement cache relies on.
func (c *Config) Key() string {
	// Worst case ~18 bytes per selector level + 8 per value; configs are
	// small, so one allocation usually suffices.
	buf := make([]byte, 0, 16+20*len(c.Selectors)+8*len(c.Values))
	buf = binary.AppendUvarint(buf, uint64(len(c.Selectors)))
	for _, sel := range c.Selectors {
		buf = binary.AppendUvarint(buf, uint64(len(sel.Levels)))
		for _, l := range sel.Levels {
			buf = binary.AppendVarint(buf, int64(l.Cutoff))
			buf = binary.AppendVarint(buf, int64(l.Choice))
		}
		buf = binary.AppendVarint(buf, int64(sel.Else))
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Values)))
	for _, v := range c.Values {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return string(buf)
}

// Int returns tunable i rounded to an integer.
func (c *Config) Int(i int) int { return int(c.Values[i] + 0.5) }

// Float returns tunable i.
func (c *Config) Float(i int) float64 { return c.Values[i] }

// Decide returns the alternative chosen by site i's selector for size n.
func (c *Config) Decide(site, n int) int { return c.Selectors[site].Decide(n) }

// Validate checks c against the space.
func (s *Space) Validate(c *Config) error {
	if len(c.Selectors) != len(s.Sites) {
		return fmt.Errorf("choice: config has %d selectors, space has %d sites", len(c.Selectors), len(s.Sites))
	}
	if len(c.Values) != len(s.Tunables) {
		return fmt.Errorf("choice: config has %d values, space has %d tunables", len(c.Values), len(s.Tunables))
	}
	for i, sel := range c.Selectors {
		nAlts := len(s.Sites[i].Alternatives)
		if len(sel.Levels) > s.MaxSelectorLevels {
			return fmt.Errorf("choice: site %q selector has %d levels (max %d)", s.Sites[i].Name, len(sel.Levels), s.MaxSelectorLevels)
		}
		prev := -1
		for _, l := range sel.Levels {
			if l.Cutoff <= prev {
				return fmt.Errorf("choice: site %q cutoffs not strictly ascending", s.Sites[i].Name)
			}
			prev = l.Cutoff
			if l.Cutoff < 2 || l.Cutoff > s.MaxCutoff {
				return fmt.Errorf("choice: site %q cutoff %d out of range", s.Sites[i].Name, l.Cutoff)
			}
			if l.Choice < 0 || l.Choice >= nAlts {
				return fmt.Errorf("choice: site %q level choice %d out of range", s.Sites[i].Name, l.Choice)
			}
		}
		if sel.Else < 0 || sel.Else >= nAlts {
			return fmt.Errorf("choice: site %q else-choice %d out of range", s.Sites[i].Name, sel.Else)
		}
	}
	for i, t := range s.Tunables {
		v := c.Values[i]
		if v < t.Min-1e-9 || v > t.Max+1e-9 {
			return fmt.Errorf("choice: tunable %q value %v out of [%v, %v]", t.Name, v, t.Min, t.Max)
		}
	}
	return nil
}

// MarshalJSON/UnmarshalJSON use the default struct encoding; Config also
// offers String for debugging.
func (c *Config) String() string {
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Sprintf("config<error: %v>", err)
	}
	return string(b)
}

func (t Tunable) quantize(v float64) float64 {
	v = clamp(v, t.Min, t.Max)
	if t.Kind == IntKind {
		return float64(int(v + 0.5))
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
