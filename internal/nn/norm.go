package nn

import (
	"fmt"
	"math"
	"math/bits"

	"modelslicing/internal/tensor"
)

// GroupNorm normalizes channels within contiguous groups (Wu & He, 2018),
// the paper's replacement for batch normalization under model slicing
// (Section 3.2): because statistics are computed per sample within each
// group, the output scale is independent of how many input channels are
// active, and the normalization layer can be sliced at group granularity
// together with the convolution it follows.
//
// Inputs may be rank 4 ([B, C, H, W]) or rank 2 ([B, C], treated as H=W=1).
type GroupNorm struct {
	C int
	// NormGroups is the number of normalization groups G in Equation 6.
	NormGroups int
	// Spec controls channel slicing. The per-group channel count C/NormGroups
	// must divide every reachable active width, which holds exactly when
	// NormGroups is a multiple of Spec.Groups (see NewGroupNorm).
	Spec SliceSpec
	Eps  float64

	Gamma *Param // [C] scale (the γ visualized in Figure 6)
	Beta  *Param // [C] shift

	// cached forward state
	xhat      *tensor.Tensor
	invStd    []float64 // per (sample, active group)
	aC        int
	batch     int
	hw        int
	rank4     bool
	origShape []int
}

// NewGroupNorm constructs a group-norm layer. normGroups must divide c, and
// for sliceability the slice-group size (c/spec.Groups) must be a multiple of
// the normalization group size (c/normGroups), i.e. normGroups must be a
// multiple of spec.Groups or equal to it; otherwise a narrow slice would cut
// a normalization group in half and the layer would panic when it serves
// that rate. The common configuration — used throughout the experiments — is
// normGroups == spec.Groups.
func NewGroupNorm(c, normGroups int, spec SliceSpec, eps float64) *GroupNorm {
	if c%normGroups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: %d channels not divisible by %d groups", c, normGroups))
	}
	spec.Validate("GroupNorm", c)
	if spec.Slice && normGroups%spec.Groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: norm groups %d incompatible with %d slice groups", normGroups, spec.Groups))
	}
	g := &GroupNorm{
		C: c, NormGroups: normGroups, Spec: spec, Eps: eps,
		Gamma: NewParam("gn.gamma", false, c),
		Beta:  NewParam("gn.beta", false, c),
	}
	g.Gamma.Value.Fill(1)
	return g
}

func (g *GroupNorm) shapeIn(x *tensor.Tensor, want int) (batch, hw int) {
	switch x.Rank() {
	case 4:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: GroupNorm input %v, want %d channels", x.Shape, want))
		}
		g.rank4 = true
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	case 2:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: GroupNorm input %v, want %d features", x.Shape, want))
		}
		g.rank4 = false
		return x.Dim(0), 1
	default:
		panic(fmt.Sprintf("nn: GroupNorm input rank %d unsupported", x.Rank()))
	}
}

// Forward normalizes the active channels group-wise per sample.
func (g *GroupNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	r := ctx.EffRate()
	g.aC = g.Spec.Active(r, g.C)
	g.batch, g.hw = g.shapeIn(x, g.aC)
	g.origShape = append([]int(nil), x.Shape...)
	gs := g.C / g.NormGroups // channels per normalization group
	if g.aC%gs != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: active width %d not divisible by group size %d", g.aC, gs))
	}
	ag := g.aC / gs // active normalization groups
	n := gs * g.hw  // elements per (sample, group)

	y := tensor.New(x.Shape...)
	g.xhat = tensor.New(x.Shape...)
	g.invStd = make([]float64, g.batch*ag)

	plane := g.aC * g.hw
	gamma, beta := g.Gamma.Value.Data, g.Beta.Value.Data
	for b := 0; b < g.batch; b++ {
		src := x.Data[b*plane : (b+1)*plane]
		dst := y.Data[b*plane : (b+1)*plane]
		xh := g.xhat.Data[b*plane : (b+1)*plane]
		for gi := 0; gi < ag; gi++ {
			mu, is := groupStats(src[gi*n:(gi+1)*n], g.Eps)
			g.invStd[b*ag+gi] = is
			for ch := gi * gs; ch < (gi+1)*gs; ch++ {
				ga, be := gamma[ch], beta[ch]
				in := src[ch*g.hw : (ch+1)*g.hw]
				hOut := xh[ch*g.hw : (ch+1)*g.hw][:len(in)]
				out := dst[ch*g.hw : (ch+1)*g.hw][:len(in)]
				for j, v := range in {
					h := (v - mu) * is
					hOut[j] = h
					out[j] = ga*h + be
				}
			}
		}
	}
	return y
}

// groupStats returns the mean and 1/√(variance+eps) of one normalization
// group. Both sums run in element order: Forward and Infer share this
// function, and the exactness tests require their outputs to agree bit for
// bit, so the order is part of the contract.
func groupStats(seg []float64, eps float64) (mu, invStd float64) {
	n := float64(len(seg))
	for _, v := range seg {
		mu += v
	}
	mu /= n
	va := 0.0
	for _, v := range seg {
		d := v - mu
		va += d * d
	}
	va /= n
	return mu, 1 / math.Sqrt(va+eps)
}

// Infer normalizes the active channels group-wise per sample on the
// read-only inference path (no x̂ cache, arena-backed output).
func (g *GroupNorm) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return g.inferAct(ctx, x, false)
}

// inferAct is Infer with an optionally fused trailing ReLU: the clamp rides
// the normalization's write pass, which removes the separate ReLU layer's
// full read+write sweep over the activation. GroupNorm statistics are
// per-sample and data-dependent, so unlike BatchNorm the normalization
// itself can never fold into the preceding convolution's GEMM epilogue —
// this pass fusion is the best available.
func (g *GroupNorm) inferAct(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor {
	r := ctx.EffRate()
	aC := g.Spec.Active(r, g.C)
	batch, hw := normShape("GroupNorm", x, aC)
	gs := g.C / g.NormGroups
	if aC%gs != 0 {
		panic(fmt.Sprintf("nn: GroupNorm: active width %d not divisible by group size %d", aC, gs))
	}
	ag := aC / gs
	n := gs * hw

	y := arenaOf(ctx).GetUninit(x.Shape...)
	plane := aC * hw
	gamma, beta := g.Gamma.Value.Data, g.Beta.Value.Data
	for b := 0; b < batch; b++ {
		src := x.Data[b*plane : (b+1)*plane]
		dst := y.Data[b*plane : (b+1)*plane]
		for gi := 0; gi < ag; gi++ {
			mu, is := groupStats(src[gi*n:(gi+1)*n], g.Eps)
			// One channel at a time: γ and β are loop constants and no
			// element pays an integer divide to find its channel.
			for ch := gi * gs; ch < (gi+1)*gs; ch++ {
				normChannel(dst[ch*hw:(ch+1)*hw], src[ch*hw:(ch+1)*hw], mu, is, gamma[ch], beta[ch], relu)
			}
		}
	}
	return y
}

// normChannel writes one channel of the normalized output,
// out[j] = γ·((in[j]−μ)·σ⁻¹) + β, clamped by reluClamp when relu is set.
func normChannel(out, in []float64, mu, is, ga, be float64, relu bool) {
	out = out[:len(in)]
	if relu {
		for j, v := range in {
			out[j] = reluClamp(ga*((v-mu)*is) + be)
		}
		return
	}
	for j, v := range in {
		out[j] = ga*((v-mu)*is) + be
	}
}

// reluClamp returns o when o > 0 and +0 otherwise, NaN and −0 included —
// the ReLU layer's semantics — without a data-dependent branch. On
// normalized activations o > 0 holds for about half the elements at random,
// so a compare-and-jump mispredicts about half the time. o > 0 exactly when
// its bit pattern u lies in [1, bits(+Inf)], i.e. when u−1 < bits(+Inf) as
// unsigned integers; the borrow of that subtraction is the keep flag, and
// its negation masks u whole or to +0.
func reluClamp(o float64) float64 {
	u := math.Float64bits(o)
	_, keep := bits.Sub64(u-1, 0x7ff0000000000000, 0)
	return math.Float64frombits(u & -keep)
}

// normShape validates a normalization input of rank 4 ([B, C, H, W]) or
// rank 2 ([B, C]) without mutating layer state, returning batch and the
// spatial extent per channel.
func normShape(name string, x *tensor.Tensor, want int) (batch, hw int) {
	switch x.Rank() {
	case 4:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: %s input %v, want %d channels", name, x.Shape, want))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	case 2:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: %s input %v, want %d features", name, x.Shape, want))
		}
		return x.Dim(0), 1
	default:
		panic(fmt.Sprintf("nn: %s input rank %d unsupported", name, x.Rank()))
	}
}

// Backward accumulates dGamma, dBeta and returns dx.
func (g *GroupNorm) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	gs := g.C / g.NormGroups
	ag := g.aC / gs
	n := gs * g.hw
	plane := g.aC * g.hw
	dx := tensor.New(g.origShape...)
	gamma := g.Gamma.Value.Data
	dgamma, dbeta := g.Gamma.Grad.Data, g.Beta.Grad.Data

	for b := 0; b < g.batch; b++ {
		gseg := dy.Data[b*plane : (b+1)*plane]
		xh := g.xhat.Data[b*plane : (b+1)*plane]
		dseg := dx.Data[b*plane : (b+1)*plane]
		for gi := 0; gi < ag; gi++ {
			is := g.invStd[b*ag+gi]
			// First pass: parameter grads and the two reduction terms, one
			// channel at a time (element order is unchanged).
			sumDxhat, sumDxhatXhat := 0.0, 0.0
			for ch := gi * gs; ch < (gi+1)*gs; ch++ {
				ga, dga, dbe := gamma[ch], dgamma[ch], dbeta[ch]
				gIn := gseg[ch*g.hw : (ch+1)*g.hw]
				hIn := xh[ch*g.hw : (ch+1)*g.hw][:len(gIn)]
				for j, gv := range gIn {
					hv := hIn[j]
					dga += gv * hv
					dbe += gv
					dxh := gv * ga
					sumDxhat += dxh
					sumDxhatXhat += dxh * hv
				}
				dgamma[ch], dbeta[ch] = dga, dbe
			}
			mDxhat := sumDxhat / float64(n)
			mDxhatXhat := sumDxhatXhat / float64(n)
			for ch := gi * gs; ch < (gi+1)*gs; ch++ {
				ga := gamma[ch]
				gIn := gseg[ch*g.hw : (ch+1)*g.hw]
				hIn := xh[ch*g.hw : (ch+1)*g.hw][:len(gIn)]
				out := dseg[ch*g.hw : (ch+1)*g.hw][:len(gIn)]
				for j, gv := range gIn {
					dxh := gv * ga
					out[j] = is * (dxh - mDxhat - hIn[j]*mDxhatXhat)
				}
			}
		}
	}
	return dx
}

// Params returns γ and β.
func (g *GroupNorm) Params() []*Param { return []*Param{g.Gamma, g.Beta} }

// GammaGroupMeans returns the mean |γ| per slice group over the full width —
// the quantity visualized in Figure 6 of the paper.
func (g *GroupNorm) GammaGroupMeans() []float64 {
	groups := g.Spec.Groups
	gs := g.C / groups
	out := make([]float64, groups)
	for gi := 0; gi < groups; gi++ {
		s := 0.0
		for j := 0; j < gs; j++ {
			s += math.Abs(g.Gamma.Value.Data[gi*gs+j])
		}
		out[gi] = s / float64(gs)
	}
	return out
}

// BatchNorm is standard batch normalization with running statistics. Under
// model slicing the running estimates destabilize as the active width varies
// (Section 3.2) — it is provided for the conventionally-trained baselines and
// as the building block of SwitchableBatchNorm (SlimmableNet).
//
// Inputs may be rank 4 ([B, C, H, W]) or rank 2 ([B, C]).
type BatchNorm struct {
	C        int
	Spec     SliceSpec
	Eps      float64
	Momentum float64 // running = (1-m)*running + m*batch

	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor

	// cached forward state
	xhat      *tensor.Tensor
	invStd    []float64
	aC        int
	batch, hw int
	origShape []int
	training  bool
}

// NewBatchNorm constructs a batch-norm layer with PyTorch-style defaults.
func NewBatchNorm(c int, spec SliceSpec) *BatchNorm {
	spec.Validate("BatchNorm", c)
	b := &BatchNorm{
		C: c, Spec: spec, Eps: 1e-5, Momentum: 0.1,
		Gamma:   NewParam("bn.gamma", false, c),
		Beta:    NewParam("bn.beta", false, c),
		RunMean: tensor.New(c),
		RunVar:  tensor.New(c),
	}
	b.Gamma.Value.Fill(1)
	b.RunVar.Fill(1)
	return b
}

func (b *BatchNorm) shapeIn(x *tensor.Tensor, want int) (batch, hw int) {
	switch x.Rank() {
	case 4:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: BatchNorm input %v, want %d channels", x.Shape, want))
		}
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	case 2:
		if x.Dim(1) != want {
			panic(fmt.Sprintf("nn: BatchNorm input %v, want %d features", x.Shape, want))
		}
		return x.Dim(0), 1
	default:
		panic(fmt.Sprintf("nn: BatchNorm input rank %d unsupported", x.Rank()))
	}
}

// Forward normalizes per channel, with batch statistics during training and
// running estimates during evaluation.
func (b *BatchNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	r := ctx.EffRate()
	b.aC = b.Spec.Active(r, b.C)
	b.batch, b.hw = b.shapeIn(x, b.aC)
	b.origShape = append([]int(nil), x.Shape...)
	b.training = ctx != nil && ctx.Training
	plane := b.aC * b.hw
	n := b.batch * b.hw

	y := tensor.New(x.Shape...)
	gamma, beta := b.Gamma.Value.Data, b.Beta.Value.Data
	if b.training {
		b.xhat = tensor.New(x.Shape...)
		b.invStd = make([]float64, b.aC)
		for c := 0; c < b.aC; c++ {
			mu, va := 0.0, 0.0
			for s := 0; s < b.batch; s++ {
				seg := x.Data[s*plane+c*b.hw : s*plane+(c+1)*b.hw]
				for _, v := range seg {
					mu += v
				}
			}
			mu /= float64(n)
			for s := 0; s < b.batch; s++ {
				seg := x.Data[s*plane+c*b.hw : s*plane+(c+1)*b.hw]
				for _, v := range seg {
					d := v - mu
					va += d * d
				}
			}
			va /= float64(n)
			is := 1 / math.Sqrt(va+b.Eps)
			b.invStd[c] = is
			// Unbiased variance for the running estimate, as in PyTorch.
			unbiased := va
			if n > 1 {
				unbiased = va * float64(n) / float64(n-1)
			}
			b.RunMean.Data[c] = (1-b.Momentum)*b.RunMean.Data[c] + b.Momentum*mu
			b.RunVar.Data[c] = (1-b.Momentum)*b.RunVar.Data[c] + b.Momentum*unbiased
			for s := 0; s < b.batch; s++ {
				off := s*plane + c*b.hw
				for j := 0; j < b.hw; j++ {
					h := (x.Data[off+j] - mu) * is
					b.xhat.Data[off+j] = h
					y.Data[off+j] = gamma[c]*h + beta[c]
				}
			}
		}
		return y
	}
	for c := 0; c < b.aC; c++ {
		is := 1 / math.Sqrt(b.RunVar.Data[c]+b.Eps)
		mu := b.RunMean.Data[c]
		for s := 0; s < b.batch; s++ {
			off := s*plane + c*b.hw
			for j := 0; j < b.hw; j++ {
				y.Data[off+j] = gamma[c]*(x.Data[off+j]-mu)*is + beta[c]
			}
		}
	}
	return y
}

// Infer normalizes with the running estimates on the read-only inference
// path (evaluation semantics; no layer state is touched).
func (b *BatchNorm) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	return b.inferAct(ctx, x, false)
}

// inferAct is Infer with an optionally fused trailing ReLU (one write pass
// instead of a separate ReLU read+write sweep).
func (b *BatchNorm) inferAct(ctx *Context, x *tensor.Tensor, relu bool) *tensor.Tensor {
	r := ctx.EffRate()
	aC := b.Spec.Active(r, b.C)
	batch, hw := normShape("BatchNorm", x, aC)
	plane := aC * hw
	y := arenaOf(ctx).GetUninit(x.Shape...)
	gamma, beta := b.Gamma.Value.Data, b.Beta.Value.Data
	for c := 0; c < aC; c++ {
		is := 1 / math.Sqrt(b.RunVar.Data[c]+b.Eps)
		mu := b.RunMean.Data[c]
		for s := 0; s < batch; s++ {
			off := s*plane + c*hw
			if relu {
				for j := 0; j < hw; j++ {
					y.Data[off+j] = reluClamp(gamma[c]*(x.Data[off+j]-mu)*is + beta[c])
				}
			} else {
				for j := 0; j < hw; j++ {
					y.Data[off+j] = gamma[c]*(x.Data[off+j]-mu)*is + beta[c]
				}
			}
		}
	}
	return y
}

// FoldedAffine returns the per-channel affine form of the evaluation-mode
// BatchNorm: y = scale[c]·x + shift[c] with scale[c] = γ[c]/√(σ²[c]+ε) and
// shift[c] = β[c] − scale[c]·μ[c]. This is what the inference-time fusion
// pass bakes into the preceding convolution's GEMM epilogue; it reads the
// running statistics at call time, so it must be recomputed if the layer is
// trained afterwards. Agreement with the unfused path is within rounding
// (≤1e-12 relative), not bit-exact, because the factored arithmetic rounds
// differently.
func (b *BatchNorm) FoldedAffine() (scale, shift []float64) {
	scale = make([]float64, b.C)
	shift = make([]float64, b.C)
	for c := 0; c < b.C; c++ {
		is := 1 / math.Sqrt(b.RunVar.Data[c]+b.Eps)
		s := b.Gamma.Value.Data[c] * is
		scale[c] = s
		shift[c] = b.Beta.Value.Data[c] - s*b.RunMean.Data[c]
	}
	return scale, shift
}

// Backward accumulates dGamma, dBeta and returns dx (training mode only).
func (b *BatchNorm) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	if !b.training {
		panic("nn: BatchNorm.Backward called after evaluation-mode Forward")
	}
	plane := b.aC * b.hw
	n := float64(b.batch * b.hw)
	dx := tensor.New(b.origShape...)
	gamma := b.Gamma.Value.Data
	dgamma, dbeta := b.Gamma.Grad.Data, b.Beta.Grad.Data
	for c := 0; c < b.aC; c++ {
		is := b.invStd[c]
		sumDxhat, sumDxhatXhat := 0.0, 0.0
		for s := 0; s < b.batch; s++ {
			off := s*plane + c*b.hw
			for j := 0; j < b.hw; j++ {
				gv := dy.Data[off+j]
				hv := b.xhat.Data[off+j]
				dgamma[c] += gv * hv
				dbeta[c] += gv
				dxh := gv * gamma[c]
				sumDxhat += dxh
				sumDxhatXhat += dxh * hv
			}
		}
		mDxhat := sumDxhat / n
		mDxhatXhat := sumDxhatXhat / n
		for s := 0; s < b.batch; s++ {
			off := s*plane + c*b.hw
			for j := 0; j < b.hw; j++ {
				dxh := dy.Data[off+j] * gamma[c]
				dx.Data[off+j] = is * (dxh - mDxhat - b.xhat.Data[off+j]*mDxhatXhat)
			}
		}
	}
	return dx
}

// Params returns γ and β.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// SwitchableBatchNorm keeps an independent BatchNorm per scheduled width —
// the SlimmableNet (Yu et al., 2018) solution to output-scale instability
// that the paper compares against in Table 1. Context.WidthIdx selects which
// set of statistics and affine parameters is used for the current pass.
type SwitchableBatchNorm struct {
	BNs []*BatchNorm
	cur int
}

// NewSwitchableBatchNorm builds one BatchNorm per width in the rate list.
func NewSwitchableBatchNorm(c int, spec SliceSpec, widths int) *SwitchableBatchNorm {
	s := &SwitchableBatchNorm{}
	for i := 0; i < widths; i++ {
		s.BNs = append(s.BNs, NewBatchNorm(c, spec))
	}
	return s
}

// Forward dispatches to the BatchNorm selected by ctx.WidthIdx.
func (s *SwitchableBatchNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	idx := 0
	if ctx != nil {
		idx = ctx.WidthIdx
	}
	if idx < 0 || idx >= len(s.BNs) {
		panic(fmt.Sprintf("nn: SwitchableBatchNorm width index %d out of range [0,%d)", idx, len(s.BNs)))
	}
	s.cur = idx
	return s.BNs[idx].Forward(ctx, x)
}

// Backward dispatches to the BatchNorm used in the preceding Forward.
func (s *SwitchableBatchNorm) Backward(ctx *Context, dy *tensor.Tensor) *tensor.Tensor {
	return s.BNs[s.cur].Backward(ctx, dy)
}

// Infer dispatches to the BatchNorm selected by ctx.WidthIdx without
// recording the selection (read-only inference path).
func (s *SwitchableBatchNorm) Infer(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	idx := 0
	if ctx != nil {
		idx = ctx.WidthIdx
	}
	if idx < 0 || idx >= len(s.BNs) {
		panic(fmt.Sprintf("nn: SwitchableBatchNorm width index %d out of range [0,%d)", idx, len(s.BNs)))
	}
	return s.BNs[idx].Infer(ctx, x)
}

// Params returns the parameters of every per-width BatchNorm.
func (s *SwitchableBatchNorm) Params() []*Param {
	var ps []*Param
	for _, b := range s.BNs {
		ps = append(ps, b.Params()...)
	}
	return ps
}
