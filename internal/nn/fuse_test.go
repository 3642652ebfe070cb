package nn

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

// checkFusedMatches runs the fused view and the original chain on the same
// input and compares within tol (0 means bit-identical).
func checkFusedMatches(t *testing.T, name string, orig Layer, x *tensor.Tensor, r float64, widthIdx int, tol float64) {
	t.Helper()
	fused := Fuse(orig)
	arena := tensor.NewArena()
	for pass := 0; pass < 2; pass++ { // second pass exercises slab reuse
		want := Infer(orig, &Context{Rate: r, WidthIdx: widthIdx}, x)
		got := Infer(fused, &Context{Rate: r, WidthIdx: widthIdx, Arena: arena}, x)
		if !got.SameShape(want) {
			t.Fatalf("%s r=%v: fused shape %v, unfused %v", name, r, got.Shape, want.Shape)
		}
		for i := range got.Data {
			d := math.Abs(got.Data[i] - want.Data[i])
			if (tol == 0 && got.Data[i] != want.Data[i]) || d > tol {
				t.Fatalf("%s r=%v pass=%d: fused[%d]=%g, unfused=%g (|Δ|=%g, tol %g)",
					name, r, pass, i, got.Data[i], want.Data[i], d, tol)
			}
		}
		arena.Reset()
	}
}

func TestFuseStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng), // + BN + ReLU → FusedConvAct
		NewBatchNorm(8, Sliced(4)),
		NewReLU(),
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), // + ReLU → FusedConvAct
		NewReLU(),
		NewConv2D(8, 8, 3, 3, 1, 1, Sliced(4), Sliced(4), false, rng), // + GN: conv stays, GN+ReLU fuse
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 8, Sliced(4), Sliced(4), true, rng), // + ReLU → FusedDenseAct
		NewReLU(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng), // bare Dense stays
	)
	fused := Fuse(net).(*Sequential)
	wantTypes := []any{
		&FusedConvAct{}, &FusedConvAct{}, &Conv2D{}, &FusedNormAct{},
		&GlobalAvgPool{}, &FusedDenseAct{}, &Dense{},
	}
	if len(fused.Layers) != len(wantTypes) {
		t.Fatalf("fused to %d layers, want %d", len(fused.Layers), len(wantTypes))
	}
	for i, l := range fused.Layers {
		if typeName(l) != typeName(wantTypes[i]) {
			t.Fatalf("layer %d: fused to %T, want %T", i, l, wantTypes[i])
		}
	}
	// Parameters are shared, not copied: training the original must be
	// visible through the fused view's Params.
	if len(fused.Params()) != len(net.Params()) {
		t.Fatalf("fused view has %d params, original %d", len(fused.Params()), len(net.Params()))
	}
	for i, p := range fused.Params() {
		if p != net.Params()[i] {
			t.Fatalf("param %d not shared", i)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *FusedConvAct:
		return "FusedConvAct"
	case *FusedDenseAct:
		return "FusedDenseAct"
	case *FusedNormAct:
		return "FusedNormAct"
	case *Conv2D:
		return "Conv2D"
	case *Dense:
		return "Dense"
	case *GlobalAvgPool:
		return "GlobalAvgPool"
	default:
		return "other"
	}
}

// TestFusedConvBNReLU pins the folded BatchNorm epilogue against the unfused
// chain at every rate (tolerance: folding refactors the affine arithmetic).
func TestFusedConvBNReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, bias := range []bool{false, true} {
		net := NewSequential(
			NewConv2D(3, 12, 3, 3, 1, 1, Fixed(), Sliced(4), bias, rng),
			NewBatchNorm(12, Sliced(4)),
			NewReLU(),
		)
		if bias {
			for i, v := range rng.Perm(12) {
				net.Layers[0].(*Conv2D).B.Value.Data[i] = float64(v) / 6
			}
		}
		net.Forward(&Context{Training: true, Rate: 1, RNG: rng}, randTensor(rng, 4, 3, 6, 6))
		for _, r := range inferRates {
			checkFusedMatches(t, "Conv+BN+ReLU", net, randTensor(rng, 3, 3, 6, 6), r, 0, 1e-12)
		}
	}
}

// TestFusedConvSwitchableBN pins the per-width folded statistics: each width
// index must reproduce its own BatchNorm's running estimates.
func TestFusedConvSwitchableBN(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		NewSwitchableBatchNorm(8, Sliced(4), len(inferRates)),
		NewReLU(),
	)
	for i, r := range inferRates {
		net.Forward(&Context{Training: true, Rate: r, WidthIdx: i, RNG: rng}, randTensor(rng, 4, 3, 5, 5))
	}
	for i, r := range inferRates {
		checkFusedMatches(t, "Conv+SBN+ReLU", net, randTensor(rng, 2, 3, 5, 5), r, i, 1e-12)
	}
}

// TestFusedBitIdenticalChains pins the fusions that do not refactor any
// arithmetic — Conv→ReLU, Dense→ReLU, GroupNorm→ReLU — to bit equality.
func TestFusedBitIdenticalChains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	convReLU := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng),
		NewReLU(),
	)
	dense := NewDense(16, 12, Sliced(4), Sliced(4), true, rng)
	dense.Rescale = true
	denseReLU := NewSequential(dense, NewReLU())
	gnReLU := NewSequential(
		NewGroupNorm(16, 4, Sliced(4), 1e-5),
		NewReLU(),
	)
	for i := range gnReLU.Layers[0].(*GroupNorm).Gamma.Value.Data {
		gnReLU.Layers[0].(*GroupNorm).Gamma.Value.Data[i] = 0.5 + rng.Float64()
		gnReLU.Layers[0].(*GroupNorm).Beta.Value.Data[i] = rng.NormFloat64()
	}
	for _, r := range inferRates {
		checkFusedMatches(t, "Conv+ReLU", convReLU, randTensor(rng, 2, 3, 6, 6), r, 0, 0)
		aIn := dense.InSpec.Active(r, dense.In)
		checkFusedMatches(t, "Dense+ReLU", denseReLU, randTensor(rng, 5, aIn), r, 0, 0)
		aC := gnReLU.Layers[0].(*GroupNorm).Spec.Active(r, 16)
		checkFusedMatches(t, "GN+ReLU", gnReLU, randTensor(rng, 2, aC, 3, 3), r, 0, 0)
	}
}

// TestFusedResidualRecursion verifies containers are rebuilt with fused
// children and still match the unfused graph.
func TestFusedResidualRecursion(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	body := NewSequential(
		Conv3x3(8, 8, Sliced(4), Sliced(4), rng),
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
	)
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		NewResidual(body, nil),
		NewGlobalAvgPool(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
	)
	fused := Fuse(net).(*Sequential)
	res, ok := fused.Layers[1].(*Residual)
	if !ok {
		t.Fatalf("layer 1 fused to %T, want *Residual", fused.Layers[1])
	}
	if _, ok := res.Body.(*Sequential).Layers[1].(*FusedNormAct); !ok {
		t.Fatal("residual body GN+ReLU not fused")
	}
	for _, r := range inferRates {
		checkFusedMatches(t, "residual", net, randTensor(rng, 2, 3, 6, 6), r, 0, 0)
	}
}

// TestConvWideLoweringMatches forces the whole-batch (wide GEMM + scatter)
// lowering — which only engages by itself on multi-core hosts — and checks
// it against the per-sample lowering bit for bit, including the
// convScratchCap tiling rule with ragged final tiles.
func TestConvWideLoweringMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	conv := NewConv2D(4, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng)
	x := randTensor(rng, 5, 4, 6, 6)
	ctx := Eval(1)
	want := conv.Infer(ctx, x) // per-sample lowering on single-core hosts

	origWide, origCap := convWideGemm, convScratchCap
	defer func() { convWideGemm, convScratchCap = origWide, origCap }()
	convWideGemm = func(m, n, k int) bool { return true }

	spatial := 6 * 6
	colRows := 4 * 9
	for _, cap := range []int{1 << 20, colRows * spatial * 2, colRows * spatial, 1} {
		convScratchCap = cap
		arena := tensor.NewArena()
		for pass := 0; pass < 2; pass++ {
			got := conv.Infer(&Context{Rate: 1, Arena: arena}, x)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("cap=%d pass=%d: wide lowering differs at %d: %g vs %g",
						cap, pass, i, got.Data[i], want.Data[i])
				}
			}
			arena.Reset()
		}
	}
}

// TestFusedForwardBackwardDelegate verifies the fused view remains a
// well-formed training Layer: Forward matches the original chain and
// Backward accumulates into the shared parameters.
func TestFusedForwardBackwardDelegate(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), false, rng),
		NewBatchNorm(8, Sliced(4)),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
		NewReLU(),
	)
	fused := Fuse(net).(*Sequential)
	x := randTensor(rng, 2, 3, 5, 5)
	ctx := &Context{Training: true, Rate: 1, RNG: rng}
	want := net.Forward(ctx, x)
	got := fused.Forward(ctx, x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fused Forward differs at %d", i)
		}
	}
	dy := randTensor(rng, 2, 4)
	fused.Backward(ctx, dy)
	nonzero := false
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("fused Backward did not accumulate into the shared parameter gradients")
	}
}

// TestFusedInferAllocsFree pins the fused path's zero-allocation steady
// state (in particular: the stack epilogues must not escape to the heap via
// the GEMM fan-out closures).
func TestFusedInferAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net := NewSequential(
		NewConv2D(3, 8, 3, 3, 1, 1, Fixed(), Sliced(4), true, rng),
		NewBatchNorm(8, Sliced(4)),
		NewReLU(),
		NewGroupNorm(8, 4, Sliced(4), 1e-5),
		NewReLU(),
		NewGlobalAvgPool(),
		NewDense(8, 4, Sliced(4), Fixed(), true, rng),
		NewReLU(),
	)
	net.Forward(&Context{Training: true, Rate: 1, RNG: rng}, randTensor(rng, 2, 3, 6, 6))
	fused := Fuse(net)
	x := randTensor(rng, 4, 3, 6, 6)
	arena := tensor.NewArena()
	ctx := &Context{Rate: 0.5, Arena: arena}
	pass := func() {
		Infer(fused, ctx, x)
		arena.Reset()
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs > 0 {
		t.Fatalf("fused arena-backed inference allocates %v times per pass, want 0", allocs)
	}
}

// TestFusedNormReLUEdgeValues pins the fused GroupNorm→ReLU clamp to the
// ReLU layer bit for bit where the two could disagree: special values fed
// to the clamp directly, and normalized values that are NaN (a group
// holding NaN or ±Inf) or −0 (a constant group, where v − μ = +0, scaled by
// a negative γ and shifted by β = −0). Both must come out +0. Rank 2
// (hw = 1) and 16×16 bracket the write loop's trip count.
func TestFusedNormReLUEdgeValues(t *testing.T) {
	// The clamp itself, at the edges of the bit-pattern range it keeps:
	// every NaN (both signs, quiet and signalling, any payload), ±0, ±Inf
	// and the extreme finite values.
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7ff8000000000000),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0xffffffffffffffff),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	relu := NewReLU().Infer(&Context{Rate: 1}, tensor.FromSlice(specials, len(specials)))
	for i, v := range specials {
		if got := reluClamp(v); math.Float64bits(got) != math.Float64bits(relu.Data[i]) {
			t.Fatalf("reluClamp(%#x) = %g, ReLU gives %g", math.Float64bits(v), got, relu.Data[i])
		}
	}

	rng := rand.New(rand.NewSource(45))
	gn := NewGroupNorm(16, 4, Sliced(4), 1e-5)
	for i := range gn.Gamma.Value.Data {
		gn.Gamma.Value.Data[i] = -0.5 - rng.Float64()
		gn.Beta.Value.Data[i] = math.Copysign(0, -1)
	}
	chain := NewSequential(gn, NewReLU())
	fused := Fuse(chain)
	for _, r := range inferRates {
		aC := gn.Spec.Active(r, gn.C)
		for _, shape := range [][]int{{3, aC}, {2, aC, 3, 3}, {2, aC, 16, 16}} {
			x := randTensor(rng, shape...)
			per := x.Size() / shape[0]
			gsz := per / (aC / 4) // elements per (sample, norm group)
			// Sample 0: group 0 constant (−0 outputs), group 1 holds a NaN.
			// Sample 1: group 0 holds +Inf (NaN statistics).
			for j := 0; j < gsz; j++ {
				x.Data[j] = 0.75
			}
			x.Data[gsz+gsz/2] = math.NaN()
			x.Data[per] = math.Inf(1)

			// The unfused chain really does produce −0 and NaN here.
			pre := Infer(gn, &Context{Rate: r}, x)
			if math.Float64bits(pre.Data[0]) != math.Float64bits(math.Copysign(0, -1)) || !math.IsNaN(pre.Data[gsz]) {
				t.Fatalf("r=%v %v: norm output %g, %g; want −0 and NaN", r, shape, pre.Data[0], pre.Data[gsz])
			}
			want := Infer(chain, &Context{Rate: r}, x)
			got := Infer(fused, &Context{Rate: r, Arena: tensor.NewArena()}, x)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("r=%v %v: fused[%d] = %g, unfused = %g", r, shape, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
