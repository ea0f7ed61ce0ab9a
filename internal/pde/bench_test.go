package pde

import (
	"strconv"
	"testing"

	"inputtune/internal/rng"
)

// BenchmarkSOR3D times one SOR sweep at the helmholtz3d training sizes and
// their multigrid levels, where most cells are boundary cells and take
// edgeStencil3D.
func BenchmarkSOR3D(b *testing.B) {
	for _, n := range []int{3, 7, 15} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			r := rng.New(uint64(n))
			op := randOp3D(n, r)
			u, f := randGrid3D(n, r), randGrid3D(n, r)
			var w Work
			b.ReportAllocs()
			for b.Loop() {
				SOR3D(op, u, f, 1.2, &w)
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
