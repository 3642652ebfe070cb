package nn

import (
	"math"
	"math/rand"
	"testing"

	"modelslicing/internal/tensor"
)

func TestGroupNormNormalizesGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := NewGroupNorm(8, 4, Fixed(), 1e-5)
	x := randTensor(rng, 3, 8, 4, 4)
	y := g.Forward(Eval(1), x)
	// With γ=1, β=0 each (sample, group) must have ~zero mean, unit var.
	gs, hw := 2, 16
	for b := 0; b < 3; b++ {
		for gi := 0; gi < 4; gi++ {
			mu, va := 0.0, 0.0
			n := gs * hw
			for c := gi * gs; c < (gi+1)*gs; c++ {
				for s := 0; s < hw; s++ {
					mu += y.Data[((b*8+c)*16 + s)]
				}
			}
			mu /= float64(n)
			for c := gi * gs; c < (gi+1)*gs; c++ {
				for s := 0; s < hw; s++ {
					d := y.Data[((b*8+c)*16+s)] - mu
					va += d * d
				}
			}
			va /= float64(n)
			if math.Abs(mu) > 1e-8 || math.Abs(va-1) > 1e-3 {
				t.Fatalf("group (%d,%d): mean %v var %v", b, gi, mu, va)
			}
		}
	}
}

func TestGroupNormGradCheck4D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := NewGroupNorm(4, 2, Fixed(), 1e-5)
	// Perturb affine params away from the identity for a stronger check.
	tensor.InitNormal(g.Gamma.Value, 0.5, rng)
	g.Gamma.Value.Data[0] += 1
	tensor.InitNormal(g.Beta.Value, 0.5, rng)
	x := randTensor(rng, 2, 4, 3, 3)
	if err := CheckGradients(g, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGroupNormGradCheck2D(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := NewGroupNorm(8, 4, Fixed(), 1e-5)
	x := randTensor(rng, 3, 8)
	if err := CheckGradients(g, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGroupNormGradCheckSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	for _, r := range []float64{0.25, 0.5, 0.75} {
		aC := g.Spec.Active(r, 8)
		x := randTensor(rng, 2, aC, 3, 3)
		if err := CheckGradients(g, Train(r, rng), x, nil, 0); err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
	}
}

// GroupNorm output for the active prefix must be independent of whether the
// wider network exists at all — the scale-stability property of Section 3.2.
func TestGroupNormSliceScaleStability(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	x4 := randTensor(rng, 2, 4, 3, 3)
	yHalf := g.Forward(Eval(0.5), x4)

	small := NewGroupNorm(4, 2, Fixed(), 1e-5)
	copy(small.Gamma.Value.Data, g.Gamma.Value.Data[:4])
	copy(small.Beta.Value.Data, g.Beta.Value.Data[:4])
	ySmall := small.Forward(Eval(1), x4)
	for i := range yHalf.Data {
		if math.Abs(yHalf.Data[i]-ySmall.Data[i]) > 1e-12 {
			t.Fatal("sliced group-norm differs from standalone small group-norm")
		}
	}
}

func TestGroupNormGammaGroupMeans(t *testing.T) {
	g := NewGroupNorm(8, 4, Sliced(4), 1e-5)
	for i := range g.Gamma.Value.Data {
		g.Gamma.Value.Data[i] = float64(i)
	}
	means := g.GammaGroupMeans()
	if len(means) != 4 {
		t.Fatalf("want 4 group means, got %d", len(means))
	}
	if means[0] != 0.5 || means[3] != 6.5 {
		t.Fatalf("group means %v", means)
	}
}

// TestGroupNormRejectsBadConfig covers a group count that does not divide
// the channels, and sliced layers whose narrow slices would cut a norm
// group in half: with 16 channels, 2 norm groups (8 channels each) and 4
// slice groups, r = 0.25 keeps 4 channels, which the layer cannot serve.
func TestGroupNormRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		c, normGroups int
		spec          SliceSpec
	}{
		{10, 4, Fixed()},
		{16, 2, Sliced(4)},
		{12, 2, Sliced(3)},
		{24, 4, Sliced(8)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGroupNorm(%d, %d, %+v) did not panic", tc.c, tc.normGroups, tc.spec)
				}
			}()
			NewGroupNorm(tc.c, tc.normGroups, tc.spec, 1e-5)
		}()
	}
	// Norm groups that are a multiple of the slice groups serve every rate;
	// unsliced layers only need normGroups to divide c.
	rng := rand.New(rand.NewSource(36))
	g := NewGroupNorm(16, 8, Sliced(4), 1e-5)
	for _, r := range inferRates {
		Infer(g, &Context{Rate: r}, randTensor(rng, 2, g.Spec.Active(r, g.C), 3, 3))
	}
	NewGroupNorm(16, 2, Fixed(), 1e-5)
}

func TestBatchNormTrainingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	b := NewBatchNorm(4, Fixed())
	x := randTensor(rng, 8, 4, 3, 3)
	y := b.Forward(Train(1, rng), x)
	// Per-channel batch mean ≈ 0, var ≈ 1 with identity affine.
	for c := 0; c < 4; c++ {
		mu, va, n := 0.0, 0.0, 0.0
		for s := 0; s < 8; s++ {
			for j := 0; j < 9; j++ {
				mu += y.At(s, c, j/3, j%3)
				n++
			}
		}
		mu /= n
		for s := 0; s < 8; s++ {
			for j := 0; j < 9; j++ {
				d := y.At(s, c, j/3, j%3) - mu
				va += d * d
			}
		}
		va /= n
		if math.Abs(mu) > 1e-8 || math.Abs(va-1) > 1e-3 {
			t.Fatalf("channel %d: mean %v var %v", c, mu, va)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	b := NewBatchNorm(2, Fixed())
	// Feed a stream with known mean 3 and std 2.
	for i := 0; i < 200; i++ {
		x := tensor.New(16, 2)
		for j := range x.Data {
			x.Data[j] = 3 + 2*rng.NormFloat64()
		}
		b.Forward(Train(1, rng), x)
	}
	for c := 0; c < 2; c++ {
		if math.Abs(b.RunMean.Data[c]-3) > 0.3 {
			t.Fatalf("running mean[%d] = %v, want ≈3", c, b.RunMean.Data[c])
		}
		if math.Abs(b.RunVar.Data[c]-4) > 1.0 {
			t.Fatalf("running var[%d] = %v, want ≈4", c, b.RunVar.Data[c])
		}
	}
	// Evaluation must use the running estimates: a batch at the stream
	// statistics should come out roughly standardized.
	x := tensor.New(1000, 2)
	for j := range x.Data {
		x.Data[j] = 3 + 2*rng.NormFloat64()
	}
	y := b.Forward(Eval(1), x)
	if math.Abs(y.Mean()) > 0.1 {
		t.Fatalf("eval-mode output mean %v, want ≈0", y.Mean())
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	b := NewBatchNorm(3, Fixed())
	tensor.InitNormal(b.Gamma.Value, 0.3, rng)
	b.Gamma.Value.Data[0] += 1
	x := randTensor(rng, 4, 3, 2, 2)
	if err := CheckGradients(b, Train(1, rng), x, nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormBackwardPanicsAfterEval(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	b := NewBatchNorm(2, Fixed())
	x := randTensor(rng, 2, 2)
	b.Forward(Eval(1), x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Backward(Eval(1), x)
}

func TestSwitchableBatchNormDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	s := NewSwitchableBatchNorm(4, Sliced(4), 3)
	if len(s.Params()) != 6 {
		t.Fatalf("want 6 params (3 widths × γ,β), got %d", len(s.Params()))
	}
	x := randTensor(rng, 4, 4)
	ctx := &Context{Training: true, Rate: 1, WidthIdx: 1, RNG: rng}
	s.Forward(ctx, x)
	// Only the selected BN's running stats move.
	if s.BNs[1].RunMean.L2Norm() == 0 {
		t.Fatal("selected BN running stats did not update")
	}
	if s.BNs[0].RunMean.L2Norm() != 0 || s.BNs[2].RunMean.L2Norm() != 0 {
		t.Fatal("unselected BN running stats were touched")
	}
}

func TestSwitchableBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	s := NewSwitchableBatchNorm(4, Sliced(2), 2)
	x := randTensor(rng, 3, 2, 2, 2) // width index 1 at rate 0.5 → 2 channels
	ctx := &Context{Training: true, Rate: 0.5, WidthIdx: 1, RNG: rng}
	if err := CheckGradients(s, ctx, x, nil, 0); err != nil {
		t.Fatal(err)
	}
}
