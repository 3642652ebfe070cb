package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// gemmBlockedTwin runs op unpacked through the blocked driver, skipping the
// small-product strided path: the twin a packed product must match bit for
// bit.
func gemmBlockedTwin(op GemmOp, m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	ep := op.Ep
	if ep.empty() {
		ep = nil
	}
	gemmParallel(op.Tier, m, n, k, gemmOperandOf(true, op.TransA, m, k, a, lda, nil),
		gemmOperandOf(false, op.TransB, k, n, b, ldb, nil), c, ldc, op.Assign, ep)
}

// packedCase runs one (m,n,k,ld,epilogue) configuration through the packed
// descriptors — PackA and PackTB, on the exact and fma tiers, in assign mode
// with the epilogue and accumulating without it — and demands BIT-identical
// results against the unpacked blocked driver. The packed layout preserves
// the driver's per-element accumulation order, so the comparison is exact
// equality, not a tolerance.
func packedCase(t *testing.T, m, n, k, lda, ldbT, ldbS, ldc int, ep *Epilogue) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*131071 + n*257 + k)))
	a := make([]float64, (m-1)*lda+k+3)
	bt := make([]float64, (n-1)*ldbT+k+3) // B stored [n×k] for PackTB
	bs := make([]float64, (k-1)*ldbS+n+3) // B stored [k×n] for PackA
	fillRand(rng, a)
	fillRand(rng, bt)
	fillRand(rng, bs)
	pa, pb := PackA(m, k, a, lda), PackTB(n, k, bt, ldbT)

	for _, tier := range allTiers[:2] {
		for _, assign := range []bool{true, false} {
			op := GemmOp{Tier: tier, Assign: assign}
			if assign {
				op.Ep = ep
			}
			// Packed A · streamed B, then streamed A · packed Bᵀ.
			for _, packB := range []bool{false, true} {
				want := make([]float64, (m-1)*ldc+n+3)
				fillRand(rng, want)
				got := append([]float64(nil), want...)
				name := "PackA"
				if packB {
					name = "PackTB"
					op.TransB = true
					gemmBlockedTwin(op, m, n, k, a, lda, bt, ldbT, want, ldc)
					op.PackB = pb
					Gemm(op, m, n, k, a, lda, nil, 0, got, ldc)
					op.TransB, op.PackB = false, nil
				} else {
					gemmBlockedTwin(op, m, n, k, a, lda, bs, ldbS, want, ldc)
					op.PackA = pa
					Gemm(op, m, n, k, nil, 0, bs, ldbS, got, ldc)
					op.PackA = nil
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%v assign=%t m=%d n=%d k=%d lda=%d ldc=%d: [%d] = %g, want %g (not bit-identical)",
							name, tier, assign, m, n, k, lda, ldc, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPackedGemmDeterministicShapes sweeps shapes across the kc/nc panel
// boundaries, with tight and strided leading dimensions, under a
// representative epilogue set.
func TestPackedGemmDeterministicShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 1, 1, 0},
		{2, 7, 5, 0},
		{3, 5, 7, 2},
		{4, 4, 4, 3},
		{8, 256, 72, 0},     // conv-like: few rows, one full nc tile
		{8, 10, 64, 0},      // dense-head-like
		{31, 33, 29, 5},     // ragged everywhere
		{48, 48, 48, 0},     // at the old small-product boundary
		{64, 64, 64, 9},     // blocked, ragged ld
		{65, 300, 63, 1},    // n crosses the nc tile boundary, ragged edge tiles
		{130, 130, 130, 11}, // above the parallel threshold with GOMAXPROCS>1
		{8, 600, 300, 3},    // row-short past the threshold: column split over a pack
		{4, 700, 320, 1},    // too few rows to split at all: column split only
		{40, 130, 270, 2},   // k > kc: multiple packed k panels
		{257, 31, 260, 0},   // tall m: 4-row kernel plus 2-row and 1-row tails
	}
	for _, s := range shapes {
		for _, mask := range []int{0, 1, 6, 24, 32, 63} {
			ep := epilogueCase(rng, mask, s.m, s.n)
			packedCase(t, s.m, s.n, s.k, s.k+s.pad, s.k+s.pad, s.n+s.pad, s.n+s.pad, ep)
		}
	}
}

// TestPackedGemmRandomShapes is the property test: random shapes, random
// strides, random epilogue masks — always bit-identical to the unpacked
// blocked engine.
func TestPackedGemmRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	iters := 60
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		m := 1 + rng.Intn(90)
		n := 1 + rng.Intn(90)
		k := 1 + rng.Intn(90)
		if it%5 == 0 {
			switch it % 3 {
			case 0:
				m += 200
			case 1:
				n += 200
			default:
				k += 300
			}
		}
		ep := epilogueCase(rng, rng.Intn(64), m, n)
		pad := rng.Intn(8)
		packedCase(t, m, n, k, k+pad, k+pad, n+rng.Intn(8), n+rng.Intn(8), ep)
	}
}

// TestPackedGemmAllEpilogueMasks runs all 2⁶ epilogue feature combinations on
// shapes exercising the serial path, the panel edges and (under
// GOMAXPROCS>1) the parallel path.
func TestPackedGemmAllEpilogueMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{8, 300, 72, 3},    // conv-like row-short product: column-split candidate
		{65, 67, 63, 1},    // ragged panels
		{130, 130, 130, 0}, // above the parallel threshold
	}
	for _, s := range shapes {
		for mask := 0; mask < 64; mask++ {
			ep := epilogueCase(rng, mask, s.m, s.n)
			packedCase(t, s.m, s.n, s.k, s.k+s.pad, s.k+s.pad, s.n+s.pad, s.n+s.pad, ep)
		}
	}
}

// TestPackedGemmEmptyK pins the assign-mode contract at k = 0 for both
// packed operands: zeros plus epilogue, slack columns untouched.
func TestPackedGemmEmptyK(t *testing.T) {
	c := []float64{7, 7, 7, 7, 7, 7}
	Gemm(GemmOp{Assign: true, Ep: &Epilogue{RowShift: []float64{1, 2}}, PackA: PackA(2, 0, nil, 0)},
		2, 2, 0, nil, 0, nil, 2, c, 3)
	want := []float64{1, 1, 7, 2, 2, 7}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("PackA k=0: c[%d] = %g, want %g", i, c[i], want[i])
		}
	}
	c2 := []float64{7, 7, 7, 7}
	Gemm(GemmOp{TransB: true, Assign: true, PackB: PackTB(2, 0, nil, 0)}, 2, 2, 0, nil, 0, nil, 0, c2, 2)
	for i, v := range c2 {
		if v != 0 {
			t.Fatalf("PackTB k=0: c[%d] = %g, want 0", i, v)
		}
	}
}

// TestPackedGemmShapeChecks verifies that a pack built for one width is
// rejected when handed to a product of another — the guard behind the
// per-width cache keying upstairs — and that packs are refused in the
// wrong slot, with the wrong transpose flag, or both at once.
func TestPackedGemmShapeChecks(t *testing.T) {
	a := make([]float64, 6*8)
	b := make([]float64, 8*4)
	c := make([]float64, 6*4)
	pa := PackA(6, 8, a, 8)
	pb := PackTB(4, 8, b, 8)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	withA := GemmOp{Assign: true, PackA: pa}
	withB := GemmOp{Assign: true, TransB: true, PackB: pb}
	Gemm(withA, 6, 4, 8, nil, 0, b, 4, c, 4) // well-formed
	Gemm(withB, 6, 4, 8, a, 8, nil, 0, c, 4) // well-formed
	expectPanic("wrong m", func() { Gemm(withA, 5, 4, 8, nil, 0, b, 4, c, 4) })
	expectPanic("wrong k", func() { Gemm(withA, 6, 4, 7, nil, 0, b, 4, c, 4) })
	expectPanic("wrong n", func() { Gemm(withB, 6, 3, 8, a, 8, nil, 0, c, 4) })
	expectPanic("layout mixup A", func() {
		Gemm(GemmOp{Assign: true, TransB: true, PackB: pa}, 6, 8, 8, a, 8, nil, 0, c, 8)
	})
	expectPanic("layout mixup B", func() { Gemm(GemmOp{Assign: true, PackA: pb}, 8, 4, 4, nil, 0, b, 4, c, 4) })
	expectPanic("nil pack", func() { Gemm(GemmOp{PackA: (*PackedMat)(nil)}, 6, 4, 8, nil, 0, b, 4, c, 4) })
	expectPanic("PackA with TransA", func() { Gemm(GemmOp{TransA: true, PackA: pa}, 6, 4, 8, nil, 0, b, 4, c, 4) })
	expectPanic("PackB without TransB", func() { Gemm(GemmOp{PackB: pb}, 6, 4, 8, a, 8, nil, 0, c, 4) })
	expectPanic("both packed", func() {
		Gemm(GemmOp{TransB: true, PackA: pa, PackB: pb}, 6, 4, 8, nil, 0, nil, 0, c, 4)
	})
}

// TestPackedMatDims pins the accessor contract and the exact (unpadded)
// memory accounting: a pack costs rows·cols elements, ragged edges included.
func TestPackedMatDims(t *testing.T) {
	a := make([]float64, 70*300)
	p := PackA(70, 300, a, 300)
	if r, c := p.Dims(); r != 70 || c != 300 {
		t.Fatalf("PackA dims = %d×%d, want 70×300", r, c)
	}
	if p.Bytes() != 70*300*8 {
		t.Fatalf("PackA bytes = %d, want %d", p.Bytes(), 70*300*8)
	}
	b := make([]float64, 70*300)
	pb := PackTB(70, 300, b, 300)
	if r, c := pb.Dims(); r != 300 || c != 70 {
		t.Fatalf("PackTB dims = %d×%d, want 300×70", r, c)
	}
	if pb.Bytes() != 300*70*8 {
		t.Fatalf("PackTB bytes = %d, want %d", pb.Bytes(), 300*70*8)
	}
}

// TestPackedGemmSharedConcurrent hammers one pack from many goroutines — the
// fan-out workers and the per-width cache both rely on a PackedMat being
// freely shareable. Run under -race in CI.
func TestPackedGemmSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const m, n, k = 32, 96, 80
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	fillRand(rng, a)
	fillRand(rng, b)
	pa := PackA(m, k, a, k)
	op := GemmOp{Assign: true, PackA: pa}
	want := make([]float64, m*n)
	Gemm(op, m, n, k, nil, 0, b, n, want, n)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float64, m*n)
			for it := 0; it < 20; it++ {
				Gemm(GemmOp{Assign: true, Ep: &Epilogue{ReLU: it%2 == 0}, PackA: pa}, m, n, k, nil, 0, b, n, c, n)
			}
			Gemm(op, m, n, k, nil, 0, b, n, c, n)
			for i := range want {
				if c[i] != want[i] {
					t.Errorf("concurrent packed GEMM diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGemmStatsCounts verifies the fan-out counters move only when a product
// actually splits.
func TestGemmStatsCounts(t *testing.T) {
	before := GemmStats()
	a := make([]float64, 4*4)
	b := make([]float64, 4*4)
	c := make([]float64, 4*4)
	Gemm(GemmOp{}, 4, 4, 4, a, 4, b, 4, c, 4) // far below every threshold
	mid := GemmStats()
	if mid.Fanouts != before.Fanouts {
		t.Fatalf("tiny Gemm bumped the fan-out counter")
	}
	if GemmWillParallelize(256, 256, 256) {
		big := make([]float64, 256*256)
		cb := make([]float64, 256*256)
		Gemm(GemmOp{}, 256, 256, 256, big, 256, big, 256, cb, 256)
		after := GemmStats()
		if after.Fanouts <= mid.Fanouts || after.FanoutWorkers <= mid.FanoutWorkers {
			t.Fatalf("parallel Gemm did not bump the fan-out counters: %+v -> %+v", mid, after)
		}
	}
}

// --- benchmarks: packed vs unpacked on the serving shapes ---

// benchConvShape times the conv orientation (weight as A) at a VGG-stage-like
// shape, packed against unpacked.
func benchConvShape(b *testing.B, m, n, k int, packed bool) {
	rng := rand.New(rand.NewSource(2))
	w := make([]float64, m*k)
	col := make([]float64, k*n)
	c := make([]float64, m*n)
	fillRand(rng, w)
	fillRand(rng, col)
	ep := &Epilogue{RowShift: make([]float64, m), ReLU: true}
	b.ReportAllocs()
	op := GemmOp{Assign: true, Ep: ep}
	if packed {
		op.PackA = PackA(m, k, w, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(op, m, n, k, w, k, col, n, c, n)
	}
}

func BenchmarkConvGemmUnpacked8x256x72(b *testing.B)  { benchConvShape(b, 8, 256, 72, false) }
func BenchmarkConvGemmPacked8x256x72(b *testing.B)    { benchConvShape(b, 8, 256, 72, true) }
func BenchmarkConvGemmUnpacked64x16x576(b *testing.B) { benchConvShape(b, 64, 16, 576, false) }
func BenchmarkConvGemmPacked64x16x576(b *testing.B)   { benchConvShape(b, 64, 16, 576, true) }
func BenchmarkConvGemmUnpacked32x64x288(b *testing.B) { benchConvShape(b, 32, 64, 288, false) }
func BenchmarkConvGemmPacked32x64x288(b *testing.B)   { benchConvShape(b, 32, 64, 288, true) }
func BenchmarkDenseGemmUnpacked32x256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 32, 256, 256
	a := make([]float64, m*k)
	w := make([]float64, n*k)
	c := make([]float64, m*n)
	fillRand(rng, a)
	fillRand(rng, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(GemmOp{TransB: true, Assign: true}, m, n, k, a, k, w, k, c, n)
	}
}
func BenchmarkDenseGemmPacked32x256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 32, 256, 256
	a := make([]float64, m*k)
	w := make([]float64, n*k)
	c := make([]float64, m*n)
	fillRand(rng, a)
	fillRand(rng, w)
	op := GemmOp{TransB: true, Assign: true, PackB: PackTB(n, k, w, k)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(op, m, n, k, a, k, nil, 0, c, n)
	}
}

// BenchmarkPackBeyondLLC is the f32 tier's case: a 24×4096×4096 dense
// product (a batch-24 shard through a 4096-wide layer) whose f64 weight pack
// is 128 MiB, past a typical last-level cache, while the f32 pack is 64 MiB.
// It allocates about 0.3 GiB, so it is named to stay out of the CI smoke
// pattern; run it explicitly with -bench PackBeyondLLC.
func BenchmarkPackBeyondLLC(b *testing.B) {
	const m, n, k = 24, 4096, 4096
	rng := rand.New(rand.NewSource(5))
	a := make([]float64, m*k)
	w := make([]float64, n*k)
	c := make([]float64, m*n)
	fillRand(rng, a)
	fillRand(rng, w)
	for _, tc := range []struct {
		name string
		tier EngineTier
		pack func() Packed
	}{
		{"fma/PackTB", TierFMA, func() Packed { return PackTB(n, k, w, k) }},
		{"f32/PackTB32", TierF32, func() Packed { return PackTB32(n, k, w, k) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			op := GemmOp{Tier: tc.tier, TransB: true, Assign: true, PackB: tc.pack()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(op, m, n, k, a, k, nil, 0, c, n)
			}
		})
	}
}
