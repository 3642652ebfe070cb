package tensor

import "sync/atomic"

// Arena is a bump allocator for the tensors of one inference pass. A forward
// pass through a deep network allocates one output (and often scratch) tensor
// per layer; with an arena those buffers come from a single reusable slab, so
// the steady-state allocation count of an inference is zero and the garbage
// collector never sees the activations.
//
// Usage contract (see DESIGN.md "Zero-copy inference engine"):
//
//   - Get returns a zero-filled tensor valid until the next Reset. Callers
//     that need a result to outlive the pass must copy it out first.
//   - One arena serves one goroutine; arenas are not safe for concurrent
//     use. Concurrent inference uses one arena per worker.
//   - A nil *Arena is valid and falls back to ordinary heap allocation,
//     so code paths can be written against the arena unconditionally.
//
// The first pass through a model grows the arena (slab spills fall back to
// the heap); from the second pass on, Get is a slice off the slab plus a
// recycled header.
type Arena struct {
	slab []float64
	off  int
	// hw mirrors the slab's high-water size for concurrent observers: the
	// owning goroutine publishes it at every Reset, so a metrics scrape can
	// read a worker's arena footprint while the worker is mid-pass without
	// racing on the slab itself.
	hw atomic.Int64
	// spilled counts elements that did not fit the slab this cycle; Reset
	// grows the slab by this much so the next cycle fits entirely.
	spilled int
	// hdrs recycles Tensor headers (and their Shape backing arrays) across
	// cycles; used counts how many are handed out in the current cycle.
	hdrs []*Tensor
	used int
}

// NewArena returns an empty arena; the slab grows to the high-water mark of
// the first pass and stays there.
func NewArena() *Arena { return &Arena{} }

// Get returns a zero-filled tensor of the given shape whose storage is owned
// by the arena (valid until Reset). A nil arena allocates from the heap.
func (a *Arena) Get(shape ...int) *Tensor {
	return a.get(true, shape)
}

// GetUninit is Get without the zero fill: the returned tensor's contents are
// whatever the slab last held. It exists for buffers every element of which
// is about to be overwritten — an assign-mode GEMM destination (GemmOp.Assign), an
// im2col scratch, a normalization output — where the clear is a wasted full
// memory pass. Callers that leave any element unwritten read garbage; when
// in doubt, use Get.
func (a *Arena) GetUninit(shape ...int) *Tensor {
	return a.get(false, shape)
}

func (a *Arena) get(zero bool, shape []int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: Arena.Get: non-positive dimension")
		}
		n *= d
	}
	if a == nil {
		// Mirrors New; inlined so the variadic shape never escapes and a
		// slab-served Get stays allocation-free. make always zeroes, so
		// GetUninit degrades to Get off-arena.
		return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	var data []float64
	if a.off+n <= len(a.slab) {
		data = a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		if zero {
			clear(data)
		}
	} else {
		a.spilled += n
		data = make([]float64, n)
	}
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// Wrap returns an arena-owned header viewing data with the given shape — a
// zero-copy reshape whose header is recycled on Reset. A nil arena allocates
// the header from the heap.
func (a *Arena) Wrap(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic("tensor: Arena.Wrap: data length does not match shape")
	}
	if a == nil {
		return &Tensor{Shape: append([]int(nil), shape...), Data: data}
	}
	t := a.header()
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// header hands out the next recycled Tensor header, growing the pool on the
// first pass.
func (a *Arena) header() *Tensor {
	if a.used < len(a.hdrs) {
		t := a.hdrs[a.used]
		a.used++
		return t
	}
	t := &Tensor{}
	a.hdrs = append(a.hdrs, t)
	a.used++
	return t
}

// Reset invalidates every tensor handed out since the previous Reset and
// makes their storage reusable. If the finished cycle spilled past the slab,
// the slab grows to fit so the next cycle allocates nothing.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.spilled > 0 {
		a.slab = make([]float64, len(a.slab)+a.spilled)
		a.spilled = 0
	}
	a.hw.Store(int64(len(a.slab)))
	a.off = 0
	a.used = 0
}

// Footprint reports the arena's current backing size in elements — the
// high-water activation volume of the passes it has served.
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return len(a.slab)
}

// HighWaterBytes reports the slab's high-water size in bytes as of the last
// Reset. Unlike Footprint it is safe to call from any goroutine while the
// owner is mid-pass — the observability stat hook for per-worker arenas.
func (a *Arena) HighWaterBytes() int64 {
	if a == nil {
		return 0
	}
	return 8 * a.hw.Load()
}
