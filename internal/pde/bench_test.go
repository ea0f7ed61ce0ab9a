package pde

import (
	"strconv"
	"testing"

	"inputtune/internal/rng"
)

// benchSweeps is how many sweeps one SOR benchmark call runs: enough that
// the multi-sweep wavefronts reach their steady state, as the solvers'
// smoothing runs do.
const benchSweeps = 40

// BenchmarkSOR2D times one benchSweeps-sweep SOR2D call at the poisson2d
// training sizes.
func BenchmarkSOR2D(b *testing.B) {
	for _, n := range []int{31, 63} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			r := rng.New(uint64(n))
			u, f := randGrid2D(n, r), randGrid2D(n, r)
			var w Work
			b.ReportAllocs()
			for b.Loop() {
				SOR2D(u, f, 1.2, benchSweeps, &w)
			}
		})
	}
}

// BenchmarkSOR3D times one benchSweeps-sweep SOR call at the helmholtz3d
// training sizes, through a Hierarchy3D as the solvers sweep: the padded
// coefficient field is built once, outside the loop.
func BenchmarkSOR3D(b *testing.B) {
	for _, n := range []int{7, 15} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			r := rng.New(uint64(n))
			h := NewHierarchy3D(randOp3D(n, r))
			u, f := randGrid3D(n, r), randGrid3D(n, r)
			var w Work
			b.ReportAllocs()
			for b.Loop() {
				h.SOR(u, f, 1.2, benchSweeps, &w)
			}
		})
	}
}

// BenchmarkDirectPoisson2D times the dense sine-transform solve at the
// poisson2d training sizes.
func BenchmarkDirectPoisson2D(b *testing.B) {
	for _, n := range []int{31, 63} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			f := randGrid2D(n, rng.New(uint64(n)))
			var w Work
			DirectPoisson2D(f, &w) // build the cached sine basis outside the loop
			b.ReportAllocs()
			for b.Loop() {
				DirectPoisson2D(f, &w)
			}
		})
	}
}
