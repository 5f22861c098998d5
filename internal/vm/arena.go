package vm

import "repro/internal/interp"

// laneArena owns all frame storage of one lane. Frames are carved out of
// chunked slabs (one bulk allocation amortized over many activations) and
// recycled through per-procedure free lists, so a lane's steady state
// allocates nothing per seed: the arena only grows to the deepest live call
// chain the lane ever sees. Nothing here is synchronized or reclaimed by
// the GC mid-batch — a lane is owned by exactly one goroutine.
type laneArena struct {
	// free[pi] is the LIFO of recycled frames for procedure pi. Calls
	// strictly nest, so a released frame is always reusable immediately.
	free [][]*frame

	frames slab[frame]
	vals   slab[interp.Value]
	refs   slab[*interp.Value]
	arrays slab[*interp.Array]
	trips  slab[int64]
}

// Chunk sizes, in elements: they double from slabMin up to slabMax, so a
// lane that runs one seed stays small while a long batch amortizes its
// allocations.
const (
	slabMin = 16
	slabMax = 1024
)

func newLaneArena(numProcs int) *laneArena {
	return &laneArena{free: make([][]*frame, numProcs)}
}

// slab hands out slots carved forward from its current chunk. Carving
// never invalidates slots already handed out, because an exhausted chunk
// is replaced, not grown.
type slab[T any] struct {
	chunk []T
	size  int
}

func (s *slab[T]) carve(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.chunk) < n {
		s.size = min(max(2*s.size, slabMin), slabMax)
		s.chunk = make([]T, max(s.size, n))
	}
	out := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return out
}

// getFrame returns a frame for procedure pi: locals seeded from the value
// template, trip counters cleared, the path register at its activation
// start. Recycled frames keep stale refs and arrays (see putFrame); the
// call-time parameter bind and the procedure prologue rewrite every one of
// those slots before any instruction reads them, so observable state
// matches a freshly carved frame.
func (a *laneArena) getFrame(pi int, pc *procCode) *frame {
	if s := a.free[pi]; len(s) > 0 {
		f := s[len(s)-1]
		a.free[pi] = s[:len(s)-1]
		copy(f.vals, pc.valTemplate)
		for i := range f.trips {
			f.trips[i] = 0
		}
		f.reg = 0
		return f
	}
	f := &a.frames.carve(1)[0]
	f.vals = a.vals.carve(len(pc.valTemplate))
	f.refs = a.refs.carve(pc.numRefs)
	f.arrays = a.arrays.carve(pc.numArrays)
	f.trips = a.trips.carve(pc.numTrips)
	copy(f.vals, pc.valTemplate)
	return f
}

// putFrame releases a frame back to its procedure's free list. Stale refs
// and arrays are NOT dropped: every ref slot is a scalar parameter and
// every array slot is a parameter or a prologue-allocated local, so each
// one is rewritten before use on the next activation, and anything a
// stale pointer pins lives at most until the lane's arena is released at
// the end of the batch. Skipping the clear avoids a pointer-write barrier
// per slot on the hottest release path. A local array slot's stale array
// is also the storage the next activation's opAllocArray resets and
// reuses (see allocLocal): nothing outside the frame holds it once the
// activation has returned.
func (a *laneArena) putFrame(pi int, f *frame) {
	a.free[pi] = append(a.free[pi], f)
}
