package choice

import (
	"fmt"
	"testing"

	"inputtune/internal/rng"
)

// depSpace models a PDE-style space: a solver site whose iteration and
// relaxation tunables are read only under some alternatives, plus one
// unguarded tunable that is always live.
//
//	solver: multigrid | jacobi | sor | direct
//	iters  — read by jacobi and sor
//	omega  — read by sor only
//	tol    — read by every solver (unguarded)
func depSpace() *Space {
	s := NewSpace()
	s.AddSite("solver", "multigrid", "jacobi", "sor", "direct")
	s.AddInt("iters", 1, 300, 60)
	s.AddFloat("omega", 1.0, 1.95, 1.5)
	s.AddFloat("tol", 0, 1, 0.5)
	s.DependsOn(0, 0, 1, 2) // iters <- {jacobi, sor}
	s.DependsOn(1, 0, 2)    // omega <- {sor}
	return s
}

// randomAllGenes draws a random configuration and then redraws every
// tunable, live or dead, so dead genes start off their defaults too.
func randomAllGenes(s *Space, r *rng.RNG) *Config {
	c := s.RandomConfig(r)
	for i, t := range s.Tunables {
		c.Values[i] = t.quantize(r.Range(t.Min, t.Max))
	}
	return c
}

func TestLiveGenes(t *testing.T) {
	s := depSpace()
	cases := []struct {
		sel  Selector
		want [3]bool
	}{
		{Selector{Else: 0}, [3]bool{false, false, true}}, // multigrid only
		{Selector{Else: 1}, [3]bool{true, false, true}},  // jacobi
		{Selector{Else: 2}, [3]bool{true, true, true}},   // sor
		{Selector{Else: 3}, [3]bool{false, false, true}}, // direct
		{Selector{Levels: []Level{{Cutoff: 64, Choice: 2}}, Else: 3}, [3]bool{true, true, true}},
		// The level's choice equals the else branch: canonicalization
		// drops it, so sor is NOT reachable and its genes stay dead.
		{Selector{Levels: []Level{{Cutoff: 64, Choice: 3}}, Else: 3}, [3]bool{false, false, true}},
	}
	for i, tc := range cases {
		c := s.DefaultConfig()
		c.Selectors[0] = tc.sel
		live := s.LiveGenes(c)
		for g, want := range tc.want {
			if live[g] != want {
				t.Errorf("case %d: live[%d] = %v, want %v", i, g, live[g], want)
			}
		}
	}
}

// TestLiveKeyConstantAcrossDeadGeneVariants: changing only dead genes never
// changes LiveKey, even when the full Key changes.
func TestLiveKeyConstantAcrossDeadGeneVariants(t *testing.T) {
	s := depSpace()
	r := rng.New(41)
	varied := 0
	for trial := 0; trial < 300; trial++ {
		c := randomAllGenes(s, r)
		live := s.LiveGenes(c)
		base := s.LiveKey(c)
		for g, isLive := range live {
			if isLive {
				continue
			}
			v := c.Clone()
			tun := s.Tunables[g]
			// Pick a quantized value different from the current one.
			nv := tun.quantize(tun.Min)
			if nv == v.Values[g] {
				nv = tun.quantize(tun.Max)
			}
			if nv == v.Values[g] {
				continue
			}
			v.Values[g] = nv
			varied++
			if v.Key() == c.Key() {
				t.Fatalf("trial %d: variant should differ in full Key", trial)
			}
			if got := s.LiveKey(v); got != base {
				t.Fatalf("trial %d: dead-gene variant changed LiveKey\n  c: %s\n  v: %s", trial, c, v)
			}
		}
	}
	if varied == 0 {
		t.Fatal("no dead-gene variants were exercised")
	}
}

// TestLiveKeyInjectiveOnLiveGenes: changing a live gene to a different
// quantized value always changes LiveKey.
func TestLiveKeyInjectiveOnLiveGenes(t *testing.T) {
	s := depSpace()
	r := rng.New(43)
	varied := 0
	for trial := 0; trial < 300; trial++ {
		c := s.Canonicalize(randomAllGenes(s, r))
		live := s.LiveGenes(c)
		base := s.LiveKey(c)
		for g, isLive := range live {
			if !isLive {
				continue
			}
			v := c.Clone()
			tun := s.Tunables[g]
			nv := tun.quantize(tun.Min)
			if nv == v.Values[g] {
				nv = tun.quantize(tun.Max)
			}
			if nv == v.Values[g] {
				continue
			}
			v.Values[g] = nv
			varied++
			if got := s.LiveKey(v); got == base {
				t.Fatalf("trial %d: live-gene change did not change LiveKey\n  c: %s\n  v: %s", trial, c, v)
			}
		}
	}
	if varied == 0 {
		t.Fatal("no live-gene variants were exercised")
	}
}

// TestCanonicalizePreservesDecide: canonicalization never changes what any
// selector decides, for any problem size.
func TestCanonicalizePreservesDecide(t *testing.T) {
	s := depSpace()
	r := rng.New(47)
	for trial := 0; trial < 200; trial++ {
		c := randomAllGenes(s, r)
		canon := s.Canonicalize(c)
		if err := s.Validate(canon); err != nil {
			t.Fatalf("trial %d: canonical config invalid: %v", trial, err)
		}
		for site := range s.Sites {
			for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 20} {
				if got, want := canon.Decide(site, n), c.Decide(site, n); got != want {
					t.Fatalf("trial %d: Decide(%d, %d) = %d after canonicalization, want %d",
						trial, site, n, got, want)
				}
			}
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	s := depSpace()
	r := rng.New(53)
	for trial := 0; trial < 200; trial++ {
		c := randomAllGenes(s, r)
		once := s.Canonicalize(c)
		twice := s.Canonicalize(once)
		if once.Key() != twice.Key() {
			t.Fatalf("trial %d: Canonicalize not idempotent", trial)
		}
	}
}

// TestRandomConfigKeepsDeadGenesAtDefault: the live-aware generator leaves
// dead genes at their quantized defaults, so random draws land on canonical
// representatives more often.
func TestRandomConfigKeepsDeadGenesAtDefault(t *testing.T) {
	s := depSpace()
	r := rng.New(59)
	for trial := 0; trial < 300; trial++ {
		c := s.RandomConfig(r)
		if err := s.Validate(c); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		live := s.LiveGenes(c)
		for g, isLive := range live {
			if isLive {
				continue
			}
			tun := s.Tunables[g]
			if c.Values[g] != tun.quantize(tun.Default) {
				t.Fatalf("trial %d: dead gene %d drawn away from default (%v)", trial, g, c.Values[g])
			}
		}
	}
}

// TestUnguardedSpaceLiveKeyEqualsKeyModuloSelectors: without dependencies,
// LiveKey differs from Key only by redundant-selector-level removal.
func TestUnguardedSpaceAllGenesLive(t *testing.T) {
	s := sortSpace()
	r := rng.New(61)
	for trial := 0; trial < 100; trial++ {
		c := s.RandomConfig(r)
		for g, isLive := range s.LiveGenes(c) {
			if !isLive {
				t.Fatalf("trial %d: gene %d dead in unguarded space", trial, g)
			}
		}
	}
}

func TestDependsOnPanics(t *testing.T) {
	cases := []func(*Space){
		func(s *Space) { s.DependsOn(-1, 0, 1) },
		func(s *Space) { s.DependsOn(9, 0, 1) },
		func(s *Space) { s.DependsOn(0, 9, 1) },
		func(s *Space) { s.DependsOn(0, 0) },
		func(s *Space) { s.DependsOn(0, 0, 99) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			s := depSpace()
			f(s)
		}()
	}
	// Guarding one tunable from two different sites is rejected.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("two-site guard: no panic")
			}
		}()
		s := NewSpace()
		s.AddSite("a", "x", "y")
		s.AddSite("b", "x", "y")
		s.AddInt("t", 0, 10, 5)
		s.DependsOn(0, 0, 1)
		s.DependsOn(0, 1, 1)
	}()
}

// TestConfigKeyGolden pins the exact byte layout of Key()/AppendBinary for
// a hand-built configuration. The encoding is wire format (serve protocol,
// model artifacts) and cache identity in one: any byte-level change breaks
// persisted models and cross-version cache reuse, so this test must only
// ever be updated together with a deliberate, versioned format change.
func TestConfigKeyGolden(t *testing.T) {
	s := testSpace() // solver(5 alts) + order(2 alts), iters int, omega float
	c := s.DefaultConfig()
	c.Selectors[0] = Selector{Levels: []Level{{Cutoff: 600, Choice: 1}, {Cutoff: 1420, Choice: 4}}, Else: 2}
	c.Selectors[1] = Selector{Else: 1}
	c.Values[0] = 120 // iters
	c.Values[1] = 1.5 // omega

	got := fmt.Sprintf("%x", []byte(c.Key()))
	const want = "0202b0090298160804000202405e0000000000003ff8000000000000"
	if got != want {
		t.Fatalf("golden Key bytes changed:\n got %s\nwant %s", got, want)
	}
	if enc := fmt.Sprintf("%x", c.AppendBinary(nil)); enc != got {
		t.Fatalf("AppendBinary diverges from Key: %s", enc)
	}
}
