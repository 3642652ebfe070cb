package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Reference implementations: the original naive triple loops the blocked
// kernels replaced. They are the correctness oracle for the property tests —
// any (m, n, k, ld*) must agree with them to within accumulation-order
// rounding.

func gemmRef(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		ai := a[i*lda : i*lda+k]
		for p := 0; p < k; p++ {
			av := ai[p]
			bp := b[p*ldb : p*ldb+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func gemmTARef(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for p := 0; p < k; p++ {
		ap := a[p*lda : p*lda+m]
		bp := b[p*ldb : p*ldb+n]
		for i, av := range ap {
			ci := c[i*ldc : i*ldc+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

func gemmTBRef(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] += s
		}
	}
}

// fillRand fills a strided rows×cols region (and its slack, to catch kernels
// that read past the logical columns) with standard normals.
func fillRand(rng *rand.Rand, buf []float64) {
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
}

// gemmCase runs one (m,n,k,ld) configuration through a kernel and its
// reference and compares, also verifying that slack columns between the
// logical width and the leading dimension are untouched.
func gemmCase(t *testing.T, name string, m, n, k, lda, ldb, ldc int,
	kernel, ref func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int),
	aRows, aCols, bRows, bCols int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000003 + n*1009 + k)))
	a := make([]float64, (aRows-1)*lda+aCols+7)
	b := make([]float64, (bRows-1)*ldb+bCols+7)
	cGot := make([]float64, (m-1)*ldc+n+7)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, cGot) // nonzero start exercises accumulation
	cWant := append([]float64(nil), cGot...)

	kernel(m, n, k, a, lda, b, ldb, cGot, ldc)
	ref(m, n, k, a, lda, b, ldb, cWant, ldc)

	tol := 1e-10 * math.Sqrt(float64(k))
	for i := range cGot {
		row, col := i/ldc, i%ldc
		inRegion := row < m && col < n
		d := math.Abs(cGot[i] - cWant[i])
		if inRegion && d > tol {
			t.Fatalf("%s m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: C[%d,%d] = %g, want %g (|Δ|=%g)",
				name, m, n, k, lda, ldb, ldc, row, col, cGot[i], cWant[i], d)
		}
		if !inRegion && cGot[i] != cWant[i] {
			t.Fatalf("%s m=%d n=%d k=%d: slack element %d modified (%g → %g)",
				name, m, n, k, i, cWant[i], cGot[i])
		}
	}
}

// gemmLayout is one operand orientation of the descriptor sweeps: the
// transpose flags and the naive oracle for that orientation.
type gemmLayout struct {
	name           string
	transA, transB bool
	ref            func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
}

var gemmLayouts = []gemmLayout{
	{"NN", false, false, gemmRef},
	{"TA", true, false, gemmTARef}, // A stored [k×m]
	{"TB", false, true, gemmTBRef}, // B stored [n×k]
}

// dims returns the stored shapes of A and B for a logical m×n×k product,
// and leading dimensions padded past their widths.
func (l gemmLayout) dims(m, n, k, padA, padB int) (lda, ldb, aRows, aCols, bRows, bCols int) {
	aRows, aCols, bRows, bCols = m, k, k, n
	if l.transA {
		aRows, aCols = k, m
	}
	if l.transB {
		bRows, bCols = n, k
	}
	return aCols + padA, bCols + padB, aRows, aCols, bRows, bCols
}

// gemmFn adapts a descriptor to the plain kernel shape gemmCase compares.
func gemmFn(op GemmOp) func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	return func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
		Gemm(op, m, n, k, a, lda, b, ldb, c, ldc)
	}
}

// allTiers lists every engine tier; unpacked products on TierF32 run the
// fma kernels.
var allTiers = []EngineTier{TierExact, TierFMA, TierF32}

// TestGemmAgainstReference sweeps deterministic shapes — both below and above
// the blocked-path and parallel-path thresholds, with tight and strided
// leading dimensions — for every orientation on every tier, accumulating.
func TestGemmAgainstReference(t *testing.T) {
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 1, 1, 0},
		{3, 5, 7, 0},
		{4, 4, 4, 3},
		{16, 16, 16, 0},
		{31, 33, 29, 5},     // ragged, below blocked threshold
		{48, 48, 48, 0},     // at the blocked threshold boundary
		{64, 64, 64, 9},     // blocked, ragged ld
		{65, 67, 63, 1},     // blocked, every edge panel ragged
		{128, 32, 256, 0},   // full kc run
		{40, 300, 20, 2},    // wide n crossing the nc panel boundary
		{300, 7, 70, 0},     // tall m crossing mc blocks
		{130, 130, 130, 11}, // above parallel threshold with GOMAXPROCS>1
		{4, 700, 320, 1},    // too few rows to split: column split only
		{256, 256, 260, 0},  // k > kc: multiple packed k panels
	}
	for _, s := range shapes {
		for _, tier := range allTiers {
			for _, l := range gemmLayouts {
				lda, ldb, aRows, aCols, bRows, bCols := l.dims(s.m, s.n, s.k, s.pad, s.pad)
				op := GemmOp{Tier: tier, TransA: l.transA, TransB: l.transB}
				gemmCase(t, l.name+"/"+tier.String(), s.m, s.n, s.k, lda, ldb, s.n+s.pad, gemmFn(op), l.ref,
					aRows, aCols, bRows, bCols)
			}
		}
	}
}

// TestGemmRandomShapes is the property test: random m, n, k and random
// strides (ld* ≥ logical width) must always agree with the reference.
func TestGemmRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 60
	if testing.Short() {
		iters = 20
	}
	for it := 0; it < iters; it++ {
		m := 1 + rng.Intn(90)
		n := 1 + rng.Intn(90)
		k := 1 + rng.Intn(90)
		if it%5 == 0 {
			// Occasionally push one dimension through the blocked panels.
			switch it % 3 {
			case 0:
				m += 200
			case 1:
				n += 200
			default:
				k += 300
			}
		}
		padA, padB, padC := rng.Intn(8), rng.Intn(8), rng.Intn(8)
		for _, l := range gemmLayouts {
			lda, ldb, aRows, aCols, bRows, bCols := l.dims(m, n, k, padA, padB)
			op := GemmOp{TransA: l.transA, TransB: l.transB}
			gemmCase(t, l.name, m, n, k, lda, ldb, n+padC, gemmFn(op), l.ref, aRows, aCols, bRows, bCols)
		}
	}
}

// --- assign mode and the fused epilogue ---

// epilogueRef applies the Epilogue contract naively to a fully accumulated
// product — the oracle for the fused in-panel application.
func epilogueRef(m, n int, c []float64, ldc int, ep *Epilogue) {
	if ep == nil {
		return
	}
	alpha := ep.Alpha
	if alpha == 0 {
		alpha = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := alpha * c[i*ldc+j]
			if ep.RowScale != nil {
				v *= ep.RowScale[i]
			}
			if ep.RowShift != nil {
				v += ep.RowShift[i]
			}
			if ep.ColScale != nil {
				v *= ep.ColScale[j]
			}
			if ep.ColShift != nil {
				v += ep.ColShift[j]
			}
			if ep.ReLU && !(v > 0) {
				v = 0
			}
			c[i*ldc+j] = v
		}
	}
}

// epilogueCases enumerates every epilogue feature combination (2^6 via the
// bitmask) with random vectors.
func epilogueCase(rng *rand.Rand, mask, m, n int) *Epilogue {
	ep := &Epilogue{}
	randVec := func(l int) []float64 {
		v := make([]float64, l)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	if mask&1 != 0 {
		ep.Alpha = 0.25 + rng.Float64()
	}
	if mask&2 != 0 {
		ep.RowScale = randVec(m)
	}
	if mask&4 != 0 {
		ep.RowShift = randVec(m)
	}
	if mask&8 != 0 {
		ep.ColScale = randVec(n)
	}
	if mask&16 != 0 {
		ep.ColShift = randVec(n)
	}
	ep.ReLU = mask&32 != 0
	return ep
}

// gemmExCase runs one assign-mode descriptor and its unfused reference
// (accumulate into zeros, then apply op.Ep naively), starting from a
// garbage-filled destination to prove assign mode overwrites every element.
func gemmExCase(t *testing.T, name string, op GemmOp, m, n, k, lda, ldb, ldc int,
	ref func(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int),
	aRows, aCols, bRows, bCols int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*999979 + n*1013 + k*7)))
	a := make([]float64, (aRows-1)*lda+aCols+5)
	b := make([]float64, (bRows-1)*ldb+bCols+5)
	cGot := make([]float64, (m-1)*ldc+n+5)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, cGot) // garbage start: assign mode must overwrite all of it
	cWant := make([]float64, len(cGot))
	copy(cWant, cGot)
	for i := range cWant {
		row, col := i/ldc, i%ldc
		if row < m && col < n {
			cWant[i] = 0
		}
	}

	Gemm(op, m, n, k, a, lda, b, ldb, cGot, ldc)
	ref(m, n, k, a, lda, b, ldb, cWant, ldc)
	epilogueRef(m, n, cWant, ldc, op.Ep)

	tol := 1e-10 * math.Sqrt(float64(k))
	for i := range cGot {
		row, col := i/ldc, i%ldc
		inRegion := row < m && col < n
		d := math.Abs(cGot[i] - cWant[i])
		if inRegion && d > tol {
			t.Fatalf("%s m=%d n=%d k=%d: C[%d,%d] = %g, want %g (|Δ|=%g)",
				name, m, n, k, row, col, cGot[i], cWant[i], d)
		}
		if !inRegion && cGot[i] != cWant[i] {
			t.Fatalf("%s m=%d n=%d k=%d: slack element %d modified (%g → %g)",
				name, m, n, k, i, cWant[i], cGot[i])
		}
	}
}

// TestGemmExEpilogueCombinations sweeps every epilogue feature combination
// over every orientation in assign mode, on shapes on both sides of the
// small-product, blocked and parallel thresholds.
func TestGemmExEpilogueCombinations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct{ m, n, k, pad int }
	shapes := []shape{
		{1, 1, 1, 0},
		{3, 17, 5, 2},
		{16, 64, 9, 0},
		{8, 300, 72, 3},    // conv-like: few rows, wide batch columns
		{65, 67, 63, 1},    // blocked, ragged panels
		{40, 130, 270, 2},  // k > kc: epilogue must fire on the last k-panel only
		{130, 130, 130, 0}, // above the parallel threshold
	}
	for _, s := range shapes {
		for mask := 0; mask < 64; mask++ {
			ep := epilogueCase(rng, mask, s.m, s.n)
			for _, l := range gemmLayouts {
				lda, ldb, aRows, aCols, bRows, bCols := l.dims(s.m, s.n, s.k, s.pad, s.pad)
				op := GemmOp{TransA: l.transA, TransB: l.transB, Assign: true, Ep: ep}
				gemmExCase(t, l.name, op, s.m, s.n, s.k, lda, ldb, s.n+s.pad, l.ref, aRows, aCols, bRows, bCols)
			}
		}
	}
}

// TestGemmExRandomShapes is the property test for assign mode: random
// shapes, random strides, random epilogues, every orientation.
func TestGemmExRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
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
		padA, padB, padC := rng.Intn(8), rng.Intn(8), rng.Intn(8)
		for _, l := range gemmLayouts {
			lda, ldb, aRows, aCols, bRows, bCols := l.dims(m, n, k, padA, padB)
			op := GemmOp{TransA: l.transA, TransB: l.transB, Assign: true, Ep: ep}
			gemmExCase(t, l.name, op, m, n, k, lda, ldb, n+padC, l.ref, aRows, aCols, bRows, bCols)
		}
	}
}

// TestGemmExBitIdenticalToGemm pins the assign-mode contract the inference
// path relies on, for every assign descriptor: the output bits do not depend
// on what C held before (NaN or random garbage), the padding columns past n
// stay untouched, and — except for the f32 packs — the result equals the
// same product accumulated into a +0 C bit for bit (the straight product,
// or the transposed one on the small strided paths, which are exact at every
// tier). Row 0 of A is −1 against an all-zero column 0 of B, so C[0][0] is
// an exact −0 sum, which assign mode must return as +0 — the value a zeroed
// C accumulates to. The shapes cover k < 4, k > kcBlock, the small
// transposed paths and (at GOMAXPROCS ≥ 2) the fan-out split.
func TestGemmExBitIdenticalToGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	crng := rand.New(rand.NewSource(19)) // prior C contents
	for _, s := range [][3]int{{5, 9, 3}, {20, 30, 50}, {192, 200, 3}, {16, 256, 72}, {64, 64, 300}, {130, 130, 130}} {
		m, n, k := s[0], s[1], s[2]
		lda, ldaT, ldb, ldbT, ldc := k+1, m+4, n+2, k+3, n+3
		a := make([]float64, m*lda)
		b := make([]float64, k*ldb) // straight B[k×n]
		fillRand(rng, a)
		fillRand(rng, b)
		at := make([]float64, k*ldaT) // the same A stored transposed, [k×m]
		bt := make([]float64, n*ldbT) // the same B stored transposed, [n×k]
		for p := 0; p < k; p++ {
			a[p] = -1
			b[p*ldb] = 0
			for j := 0; j < n; j++ {
				bt[j*ldbT+p] = b[p*ldb+j]
			}
		}
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*ldaT+i] = a[i*lda+p]
			}
		}
		small := m*n*k < smallGemmFlops

		// Each entry is an assign-mode descriptor with its operands; ref is
		// the accumulate-mode twin (nil for the f32 packs).
		type entry struct {
			name     string
			op       GemmOp
			a, b     []float64
			lda, ldb int
			ref      *GemmOp
		}
		var entries []entry
		for _, tier := range allTiers[:2] {
			straight := &GemmOp{Tier: tier}
			taRef, tbRef := straight, straight
			if small {
				taRef, tbRef = &GemmOp{TransA: true}, &GemmOp{TransB: true}
			}
			pa, pb := PackA(m, k, a, lda), PackTB(n, k, bt, ldbT)
			entries = append(entries,
				entry{"NN/" + tier.String(), GemmOp{Tier: tier}, a, b, lda, ldb, straight},
				entry{"TA/" + tier.String(), GemmOp{Tier: tier, TransA: true}, at, b, ldaT, ldb, taRef},
				entry{"TB/" + tier.String(), GemmOp{Tier: tier, TransB: true}, a, bt, lda, ldbT, tbRef},
				entry{"PackA/" + tier.String(), GemmOp{Tier: tier, PackA: pa}, nil, b, 0, ldb, straight},
				entry{"PackTB/" + tier.String(), GemmOp{Tier: tier, TransB: true, PackB: pb}, a, nil, lda, 0, straight})
		}
		entries = append(entries,
			entry{"PackA32", GemmOp{Tier: TierF32, PackA: PackA32(m, k, a, lda)}, nil, b, 0, ldb, nil},
			entry{"PackTB32", GemmOp{Tier: TierF32, TransB: true, PackB: PackTB32(n, k, bt, ldbT)}, a, nil, lda, 0, nil})

		for _, e := range entries {
			e.op.Assign = true
			run := func(c []float64) { Gemm(e.op, m, n, k, e.a, e.lda, e.b, e.ldb, c, ldc) }
			cNaN := make([]float64, m*ldc)
			for i := range cNaN {
				cNaN[i] = math.NaN()
			}
			cRand := make([]float64, m*ldc)
			fillRand(crng, cRand)
			prior := append([]float64(nil), cRand...)
			run(cNaN)
			run(cRand)
			var cRef []float64
			if e.ref != nil {
				cRef = make([]float64, m*ldc)
				ra, rlda, rb, rldb := a, lda, b, ldb
				if e.ref.TransA {
					ra, rlda = at, ldaT
				}
				if e.ref.TransB {
					rb, rldb = bt, ldbT
				}
				Gemm(*e.ref, m, n, k, ra, rlda, rb, rldb, cRef, ldc)
			}
			for i := 0; i < m; i++ {
				for j := 0; j < ldc; j++ {
					x := i*ldc + j
					if j >= n {
						if !math.IsNaN(cNaN[x]) || cRand[x] != prior[x] {
							t.Fatalf("%s m=%d n=%d k=%d: padding C[%d][%d] overwritten", e.name, m, n, k, i, j)
						}
						continue
					}
					got := math.Float64bits(cNaN[x])
					if other := math.Float64bits(cRand[x]); got != other {
						t.Fatalf("%s m=%d n=%d k=%d: C[%d][%d] depends on prior C: %x over NaN, %x over random",
							e.name, m, n, k, i, j, got, other)
					}
					if cRef != nil && got != math.Float64bits(cRef[x]) {
						t.Fatalf("%s m=%d n=%d k=%d: C[%d][%d] = %x, accumulate into +0 gives %x",
							e.name, m, n, k, i, j, got, math.Float64bits(cRef[x]))
					}
				}
			}
			if got := math.Float64bits(cNaN[0]); got != 0 {
				t.Fatalf("%s m=%d n=%d k=%d: −0 sum gave C[0][0] bits %x, want +0", e.name, m, n, k, got)
			}
		}
	}
}

// TestGemmExEmptyK pins the assign-mode contract at k = 0: an empty sum
// must still fully overwrite C (zeros) and run the epilogue, on the blocked
// and the small strided path alike.
func TestGemmExEmptyK(t *testing.T) {
	c := []float64{7, 7, 7, 7, 7, 7}
	Gemm(GemmOp{Assign: true, Ep: &Epilogue{RowShift: []float64{1, 2}}}, 2, 2, 0, nil, 0, nil, 2, c, 3)
	want := []float64{1, 1, 7, 2, 2, 7} // ldc=3: slack column untouched
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %g, want %g (full: %v)", i, c[i], want[i], c)
		}
	}
	c2 := []float64{7, 7, 7, 7}
	Gemm(GemmOp{TransB: true, Assign: true}, 2, 2, 0, nil, 0, nil, 0, c2, 2)
	for i, v := range c2 {
		if v != 0 {
			t.Fatalf("TransB k=0: c[%d] = %g, want 0", i, v)
		}
	}
}

// TestEpilogueVectorChecks verifies the epilogue length validation, and
// that an epilogue on an accumulating product is refused.
func TestEpilogueVectorChecks(t *testing.T) {
	a := make([]float64, 12)
	b := make([]float64, 12)
	c := make([]float64, 9)
	expectPanic := func(name string, op GemmOp) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Gemm accepted it", name)
			}
		}()
		Gemm(op, 3, 3, 4, a, 4, b, 3, c, 3)
	}
	expectPanic("short RowScale", GemmOp{Assign: true, Ep: &Epilogue{RowScale: make([]float64, 2)}})
	expectPanic("epilogue without Assign", GemmOp{Ep: &Epilogue{ReLU: true}})
}

// --- kernel benchmarks: size sweep for the perf trajectory ---

func benchGemmSize(b *testing.B, n int, kernel func(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int)) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	c := make([]float64, n*n)
	fillRand(rng, a)
	fillRand(rng, bm)
	b.SetBytes(int64(8 * n * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(n, n, n, a, n, bm, n, c, n)
	}
	b.ReportMetric(2*float64(n)*float64(n)*float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
}

func BenchmarkGemm32(b *testing.B)    { benchGemmSize(b, 32, gemmFn(GemmOp{})) }
func BenchmarkGemm64(b *testing.B)    { benchGemmSize(b, 64, gemmFn(GemmOp{})) }
func BenchmarkGemm128(b *testing.B)   { benchGemmSize(b, 128, gemmFn(GemmOp{})) }
func BenchmarkGemm256(b *testing.B)   { benchGemmSize(b, 256, gemmFn(GemmOp{})) }
func BenchmarkGemm512(b *testing.B)   { benchGemmSize(b, 512, gemmFn(GemmOp{})) }
func BenchmarkGemmTA256(b *testing.B) { benchGemmSize(b, 256, gemmFn(GemmOp{TransA: true})) }
func BenchmarkGemmTB256(b *testing.B) { benchGemmSize(b, 256, gemmFn(GemmOp{TransB: true})) }

func BenchmarkGemmRef256(b *testing.B) { benchGemmSize(b, 256, gemmRef) }

var _ = fmt.Sprintf // keep fmt linked for debug sessions
