package feature

import "sync"

// SlicePool recycles []T backing arrays across goroutines in power-of-two
// size classes from 1<<minShift to 1<<maxShift elements. It generalizes
// the float64 and byte pools this package has carried since PR 5 so new
// hot-path consumers (the tracer's span buffers, the fleet's frame
// wrapping) share one implementation instead of a third hand-rolled copy.
//
// Get returns a zero-length slice with at least the hinted capacity;
// requests above the largest class fall back to plain allocation. Put
// files a slice under the largest class its capacity fully covers, so a
// pooled slice always satisfies its class's capacity promise; slices
// smaller than the smallest class are dropped for the garbage collector.
type SlicePool[T any] struct {
	pools    []*sync.Pool
	minShift int
}

// NewSlicePool builds a pool with size classes 1<<minShift .. 1<<maxShift.
func NewSlicePool[T any](minShift, maxShift int) *SlicePool[T] {
	if minShift < 0 || maxShift < minShift {
		panic("feature: invalid SlicePool shifts")
	}
	ps := make([]*sync.Pool, maxShift-minShift+1)
	for i := range ps {
		ps[i] = &sync.Pool{}
	}
	return &SlicePool[T]{pools: ps, minShift: minShift}
}

// classFor returns the index of the smallest class holding n elements, or
// -1 when n exceeds the largest class.
func (p *SlicePool[T]) classFor(n int) int {
	for i := 0; i < len(p.pools); i++ {
		if n <= 1<<(p.minShift+i) {
			return i
		}
	}
	return -1
}

// Get returns a zero-length slice with capacity at least capacityHint,
// drawn from a size-classed pool when possible. Contents beyond the
// length are unspecified; callers append into it.
func (p *SlicePool[T]) Get(capacityHint int) []T {
	if capacityHint < 0 {
		capacityHint = 0
	}
	cls := p.classFor(capacityHint)
	if cls < 0 {
		return make([]T, 0, capacityHint)
	}
	if v := p.pools[cls].Get(); v != nil {
		return v.([]T)[:0]
	}
	return make([]T, 0, 1<<(p.minShift+cls))
}

// Put returns a slice obtained from Get (or anywhere else) to the pool.
// The caller must not touch s afterwards: a later Get may hand the same
// backing array to another goroutine.
func (p *SlicePool[T]) Put(s []T) {
	c := cap(s)
	if c < 1<<p.minShift {
		return
	}
	// File under the largest class the capacity fully covers.
	cls := -1
	for i := len(p.pools) - 1; i >= 0; i-- {
		if c >= 1<<(p.minShift+i) {
			cls = i
			break
		}
	}
	if cls < 0 {
		return
	}
	p.pools[cls].Put(s[:0])
}

// Float64 buffers back served inputs: the wire decoder reads each vector
// field straight into one, and the buffer becomes the input's backing
// array with no second materialization. Extraction itself then runs
// through the one shared routine (Set.extractOne), so a served request
// computes bit-identical feature values to an offline one.
//
// Buffer size classes are powers of two from 1<<minPoolShift to
// 1<<maxPoolShift float64s (256 .. 2M elements, 2 KB .. 16 MB). Requests
// outside the classes fall back to plain allocation.
const (
	minPoolShift = 8
	maxPoolShift = 21
)

// bufPool holds []float64 slices in classes 1<<minPoolShift .. 1<<maxPoolShift.
var bufPool = NewSlicePool[float64](minPoolShift, maxPoolShift)

// GetBuffer returns a zero-length float64 slice with capacity at least
// capacityHint, drawn from a size-classed pool when possible. The slice's
// contents beyond its length are unspecified; callers append into it.
func GetBuffer(capacityHint int) []float64 { return bufPool.Get(capacityHint) }

// PutBuffer returns a buffer obtained from GetBuffer (or anywhere else) to
// the pool. The caller must not touch buf afterwards: a later GetBuffer
// may hand the same backing array to another goroutine. Small or oversized
// buffers are dropped for the garbage collector.
func PutBuffer(buf []float64) { bufPool.Put(buf) }

// Raw byte blocks get the same treatment as float64 buffers: the wire
// layer reads whole request bodies (binary frames the fleet router
// fingerprints in place, JSON envelopes it normalizes) before any
// decoding, and per-request io.ReadAll growth was the one allocation left
// on that path. Classes are powers of two from 512 B to 16 MB; requests
// outside fall back to plain allocation.
const (
	minBytePoolShift = 9
	maxBytePoolShift = 24
)

// bytePool holds []byte slices in classes 1<<minBytePoolShift .. 1<<maxBytePoolShift.
var bytePool = NewSlicePool[byte](minBytePoolShift, maxBytePoolShift)

// GetBytes returns a zero-length byte slice with capacity at least
// capacityHint, drawn from a size-classed pool when possible.
func GetBytes(capacityHint int) []byte { return bytePool.Get(capacityHint) }

// PutBytes returns a buffer obtained from GetBytes (or anywhere else) to
// the pool. The caller must not touch buf afterwards. Small or oversized
// buffers are dropped for the garbage collector.
func PutBytes(buf []byte) { bytePool.Put(buf) }
