package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Accuracy gates for the fast tiers at the kernel level, pinned empirically
// (see DESIGN.md §12): measured deviations sit 3+ orders of magnitude below
// these, so a regression that breaks the tier contract trips loudly.
const (
	fmaKernelTol = 1e-9 // fma vs exact, relative to max|C|
	f32KernelTol = 1e-4 // f32 packs vs exact, relative to max|C|
)

func TestTierParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want EngineTier
	}{{"", TierExact}, {"exact", TierExact}, {"fma", TierFMA}, {"f32", TierF32}} {
		got, err := ParseTier(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseTier(%q) = %v, %v; want %v", tc.s, got, err, tc.want)
		}
	}
	if _, err := ParseTier("int8"); err == nil {
		t.Fatal("ParseTier accepted an unknown tier")
	}
	for tier, want := range map[EngineTier]string{TierExact: "exact", TierFMA: "fma", TierF32: "f32"} {
		if tier.String() != want {
			t.Fatalf("String() = %q, want %q", tier.String(), want)
		}
	}
}

func TestTierFromEnv(t *testing.T) {
	cases := map[string]EngineTier{"": TierExact, "exact": TierExact, "nonsense": TierExact}
	if HasFMA() {
		cases["fma"] = TierFMA
		cases["f32"] = TierF32
	} else {
		// Fast tiers downgrade on non-FMA hosts: software math.FMA would be
		// correct but slower than the exact engine.
		cases["fma"] = TierExact
		cases["f32"] = TierExact
	}
	for env, want := range cases {
		t.Setenv("MS_ENGINE_TIER", env)
		if got := TierFromEnv(); got != want {
			t.Fatalf("MS_ENGINE_TIER=%q: TierFromEnv() = %v, want %v", env, got, want)
		}
	}
}

// tierShapes mirrors the kernel-flip test's sweep: shapes on both sides of
// every dispatch boundary (narrow panels, ragged tiles, multiple k panels,
// the parallel threshold), plus strided operands.
var tierShapes = []struct{ m, n, k, pad int }{
	{1, 1, 1, 0},
	{2, 8, 4, 0},
	{16, 7, 30, 0}, // below vecMinCols: scalar either way
	{5, 9, 11, 3},
	{31, 33, 29, 5},
	{65, 67, 63, 1},
	{40, 300, 20, 2},   // crosses the nc tile boundary
	{64, 64, 300, 0},   // multiple kc panels
	{130, 130, 130, 7}, // above the parallel threshold
	{8, 600, 300, 3},   // row-short past it: column split over a pack
	{4, 700, 320, 1},   // too few rows to split at all
}

// TestFastTierFlipBitIdentical pins the fast tiers' determinism contract:
// flipping useFMA (vector kernels vs math.FMA scalar loops) must not change
// a single bit, for both f64 operands and f32 packs, across shapes, strides,
// and every epilogue combination. This is what lets one tolerance, measured
// once, stand for every host and GOMAXPROCS.
func TestFastTierFlipBitIdentical(t *testing.T) {
	if !useFMA {
		t.Skip("host has no FMA: only the scalar path exists, nothing to flip")
	}
	rng := rand.New(rand.NewSource(23))
	for _, s := range tierShapes {
		lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+s.pad
		ldbT := s.k + s.pad // GemmTB orientation: B stored [n×k]
		a := make([]float64, s.m*lda+8)
		b := make([]float64, s.k*ldb+8)
		bt := make([]float64, s.n*ldbT+8)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, bt)
		ep := epilogueCase(rng, rng.Intn(64), s.m, s.n)
		ptb := PackTB32(s.n, s.k, bt, ldbT)
		pa := PackA32(s.m, s.k, a, lda)

		ops := []struct {
			name     string
			op       GemmOp
			a, b     []float64
			lda, ldb int
		}{
			{"NN/fma", GemmOp{Tier: TierFMA}, a, b, lda, ldb},
			{"NN/fma/assign", GemmOp{Tier: TierFMA, Assign: true, Ep: ep}, a, b, lda, ldb},
			{"TB/fma/assign", GemmOp{Tier: TierFMA, TransB: true, Assign: true, Ep: ep}, a, bt, lda, ldbT},
			{"PackTB32", GemmOp{Tier: TierF32, TransB: true, Assign: true, Ep: ep, PackB: ptb}, a, nil, lda, 0},
			{"PackA32", GemmOp{Tier: TierF32, Assign: true, Ep: ep, PackA: pa}, nil, b, 0, ldb},
		}
		for _, o := range ops {
			vec := make([]float64, s.m*ldc+8)
			scl := make([]float64, len(vec))
			fillRand(rng, vec)
			copy(scl, vec)
			Gemm(o.op, s.m, s.n, s.k, o.a, o.lda, o.b, o.ldb, vec, ldc)
			useFMA = false
			Gemm(o.op, s.m, s.n, s.k, o.a, o.lda, o.b, o.ldb, scl, ldc)
			useFMA = true
			for i := range vec {
				if math.Float64bits(vec[i]) != math.Float64bits(scl[i]) {
					t.Fatalf("%s m=%d n=%d k=%d pad=%d: vector/scalar diverge at %d: %g vs %g",
						o.name, s.m, s.n, s.k, s.pad, i, vec[i], scl[i])
				}
			}
		}
	}
}

// tierMaxRel returns max|got-want| / max|want| over the m×n region.
func tierMaxRel(m, n, ldc int, got, want []float64) float64 {
	maxD, maxW := 0.0, 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			maxD = math.Max(maxD, math.Abs(got[i*ldc+j]-want[i*ldc+j]))
			maxW = math.Max(maxW, math.Abs(want[i*ldc+j]))
		}
	}
	if maxW == 0 {
		return maxD
	}
	return maxD / maxW
}

// TestFMATierToleranceVsExact property-tests the fma tier against the exact
// engine over every orientation, strides, and all 2^6 epilogue masks.
func TestFMATierToleranceVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range tierShapes {
		for mask := 0; mask < 64; mask++ {
			m, n, k := s.m, s.n, s.k
			for _, l := range gemmLayouts {
				lda, ldb, aRows, _, bRows, _ := l.dims(m, n, k, s.pad, s.pad)
				ldc := n + s.pad
				a := make([]float64, aRows*lda+4)
				b := make([]float64, bRows*ldb+4)
				fillRand(rng, a)
				fillRand(rng, b)
				op := GemmOp{TransA: l.transA, TransB: l.transB, Assign: true, Ep: epilogueCase(rng, mask, m, n)}
				want := make([]float64, m*ldc+4)
				got := make([]float64, len(want))
				Gemm(op, m, n, k, a, lda, b, ldb, want, ldc)
				op.Tier = TierFMA
				Gemm(op, m, n, k, a, lda, b, ldb, got, ldc)
				if rel := tierMaxRel(m, n, ldc, got, want); rel > fmaKernelTol {
					t.Fatalf("fma tier %s m=%d n=%d k=%d mask=%d: rel error %.3g > %g", l.name, m, n, k, mask, rel, fmaKernelTol)
				}
			}
		}
	}
}

// TestF32TierToleranceVsExact property-tests the f32 packed paths (both
// orientations) against the exact oracle, including shapes whose tiles cross
// the per-panel scale boundaries.
func TestF32TierToleranceVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, s := range tierShapes {
		for _, mask := range []int{0, 7, 21, 42, 63, rng.Intn(64)} {
			m, n, k := s.m, s.n, s.k
			lda, ldc := k+s.pad, n+s.pad
			ldbT := k + s.pad
			ldb := n + s.pad
			a := make([]float64, m*lda+4)
			bt := make([]float64, n*ldbT+4)
			b := make([]float64, k*ldb+4)
			fillRand(rng, a)
			fillRand(rng, bt)
			fillRand(rng, b)
			ep := epilogueCase(rng, mask, m, n)

			// The dense orientation (A · Bᵀ with a PackTB32 right operand)
			// and the conv one (A · B with a PackA32 left operand), each
			// against the exact engine on the straight operands.
			exact := GemmOp{Assign: true, Ep: ep}
			for _, tc := range []struct {
				name     string
				op       GemmOp
				a, b     []float64
				lda, ldb int
				bRef     []float64
			}{
				{"PackTB32", GemmOp{Tier: TierF32, TransB: true, Assign: true, Ep: ep, PackB: PackTB32(n, k, bt, ldbT)},
					a, nil, lda, 0, transposeTB(n, k, bt, ldbT)},
				{"PackA32", GemmOp{Tier: TierF32, Assign: true, Ep: ep, PackA: PackA32(m, k, a, lda)},
					nil, b, 0, ldb, nil},
			} {
				want := make([]float64, m*ldc+4)
				got := make([]float64, len(want))
				if tc.bRef != nil {
					Gemm(exact, m, n, k, a, lda, tc.bRef, n, want, ldc)
				} else {
					Gemm(exact, m, n, k, a, lda, b, ldb, want, ldc)
				}
				Gemm(tc.op, m, n, k, tc.a, tc.lda, tc.b, tc.ldb, got, ldc)
				if rel := tierMaxRel(m, n, ldc, got, want); rel > f32KernelTol {
					t.Fatalf("f32 %s m=%d n=%d k=%d mask=%d: rel error %.3g > %g", tc.name, m, n, k, mask, rel, f32KernelTol)
				}
			}
		}
	}
}

// transposeTB materializes Bᵀ[k×n] from a [n×k]-stored operand so the exact
// straight product can serve as the oracle.
func transposeTB(n, k int, b []float64, ldb int) []float64 {
	bt := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			bt[p*n+j] = b[j*ldb+p]
		}
	}
	return bt
}

// TestPack32RoundTrip verifies the per-panel scale layout: every element of
// both pack orientations must reconstruct to its source within one float32
// quantization (plus the scale division's f64 rounding).
func TestPack32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const tol = 1.3e-7 // 2^-24 (f32) + 2^-53 (divide), with headroom
	n, k := 300, 270   // crosses both the nc and kc panel boundaries
	w := make([]float64, n*k)
	fillRand(rng, w)
	// Magnitude spread across tiles: per-panel scales must track it.
	for i := range w {
		if i%3 == 0 {
			w[i] *= 1e6
		}
	}
	ptb := PackTB32(n, k, w, k)
	nJc := (n + ncBlock - 1) / ncBlock
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			pc := p / kcBlock * kcBlock
			jc := j / ncBlock * ncBlock
			kcb := min(kcBlock, k-pc)
			ncb := min(ncBlock, n-jc)
			s := ptb.scales[(pc/kcBlock)*nJc+jc/ncBlock]
			got := float64(ptb.data[pc*n+kcb*jc+(p-pc)*ncb+(j-jc)]) * s
			if d := math.Abs(got - w[j*k+p]); d > tol*math.Max(math.Abs(w[j*k+p]), s*1e-10) {
				t.Fatalf("PackTB32 [%d,%d]: got %g want %g (scale %g)", j, p, got, w[j*k+p], s)
			}
		}
	}
	m := 130
	aw := make([]float64, m*k)
	fillRand(rng, aw)
	pa := PackA32(m, k, aw, k)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			pc := p / kcBlock * kcBlock
			kcb := min(kcBlock, k-pc)
			s := pa.scales[pc/kcBlock]
			got := float64(pa.data[m*pc+i*kcb+(p-pc)]) * s
			if d := math.Abs(got - aw[i*k+p]); d > tol*math.Max(math.Abs(aw[i*k+p]), s*1e-10) {
				t.Fatalf("PackA32 [%d,%d]: got %g want %g (scale %g)", i, p, got, aw[i*k+p], s)
			}
		}
	}
	if ptb.Bytes() >= PackTB(n, k, w, k).Bytes()*3/4 {
		t.Fatalf("PackTB32 bytes %d not ~half of PackTB %d", ptb.Bytes(), PackTB(n, k, w, k).Bytes())
	}
}

// TestNarrowPanelTakesScalarPath is the regression test for the shared
// narrow-panel threshold: a 7-column panel (below vecMinCols) must take the
// scalar path under the exact, fma, and f32 tiers alike, and a wide panel
// must take the vector path wherever the hardware allows it.
func TestNarrowPanelTakesScalarPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, n, k := 16, 7, 30
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	bt := make([]float64, n*k)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, bt)
	c := make([]float64, m*n)

	delta := func(run func()) [NumTiers]KernelCounters {
		before := GemmStats().Kernels
		run()
		after := GemmStats().Kernels
		var d [NumTiers]KernelCounters
		for i := range d {
			d[i] = KernelCounters{Vector: after[i].Vector - before[i].Vector, Scalar: after[i].Scalar - before[i].Scalar}
		}
		return d
	}

	for _, tier := range []EngineTier{TierExact, TierFMA} {
		d := delta(func() { Gemm(GemmOp{Tier: tier}, m, n, k, a, k, b, n, c, n) })
		if d[tier].Scalar == 0 || d[tier].Vector != 0 {
			t.Fatalf("tier %v, 7-column panel: kernel deltas %+v, want scalar>0 vector=0", tier, d)
		}
	}
	d := delta(func() {
		Gemm(GemmOp{Tier: TierF32, TransB: true, Assign: true, PackB: PackTB32(n, k, bt, k)}, m, n, k, a, k, nil, 0, c, n)
	})
	if d[TierF32].Scalar == 0 || d[TierF32].Vector != 0 {
		t.Fatalf("tier f32, 7-column panel: kernel deltas %+v, want scalar>0 vector=0", d)
	}

	// Wide panels engage the vector kernels when the hardware has them.
	wn := 64
	wb := make([]float64, k*wn)
	wbt := make([]float64, wn*k)
	fillRand(rng, wb)
	fillRand(rng, wbt)
	wc := make([]float64, m*wn)
	if HasAVX() {
		if d := delta(func() { Gemm(GemmOp{}, m, wn, k, a, k, wb, wn, wc, wn) }); d[TierExact].Vector == 0 {
			t.Fatalf("exact tier, wide panel: kernel deltas %+v, want vector>0", d)
		}
	}
	if HasFMA() {
		if d := delta(func() { Gemm(GemmOp{Tier: TierFMA}, m, wn, k, a, k, wb, wn, wc, wn) }); d[TierFMA].Vector == 0 {
			t.Fatalf("fma tier, wide panel: kernel deltas %+v, want vector>0", d)
		}
		if d := delta(func() {
			op := GemmOp{Tier: TierF32, TransB: true, Assign: true, PackB: PackTB32(wn, k, wbt, k)}
			Gemm(op, m, wn, k, a, k, nil, 0, wc, wn)
		}); d[TierF32].Vector == 0 {
			t.Fatalf("f32 tier, wide panel: kernel deltas %+v, want vector>0", d)
		}
	}
}

// TestFastTierZeroAlloc pins the steady-state allocation contract of the
// fast-tier entry points: like the exact packed paths, they must not
// allocate per call.
func TestFastTierZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items by design; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(43))
	m, n, k := 64, 64, 64 // blocked, below the parallel threshold
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	bt := make([]float64, n*k)
	fillRand(rng, a)
	fillRand(rng, b)
	fillRand(rng, bt)
	c := make([]float64, m*n)
	ep := &Epilogue{RowShift: make([]float64, m), ReLU: true}
	ptb := PackTB32(n, k, bt, k)
	pa := PackA32(m, k, a, k)

	for name, fn := range map[string]func(){
		"NN/fma": func() { Gemm(GemmOp{Tier: TierFMA, Assign: true, Ep: ep}, m, n, k, a, k, b, n, c, n) },
		"TB/fma": func() { Gemm(GemmOp{Tier: TierFMA, TransB: true, Assign: true, Ep: ep}, m, n, k, a, k, bt, k, c, n) },
		"PackTB32": func() {
			Gemm(GemmOp{Tier: TierF32, TransB: true, Assign: true, Ep: ep, PackB: ptb}, m, n, k, a, k, nil, 0, c, n)
		},
		"PackA32": func() { Gemm(GemmOp{Tier: TierF32, Assign: true, Ep: ep, PackA: pa}, m, n, k, nil, 0, b, n, c, n) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Fatalf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
