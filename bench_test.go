package modelslicing_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark per table/figure — see DESIGN.md §4), plus
// kernel-level performance benchmarks that demonstrate the quadratic
// cost-vs-rate law in wall-clock time, and ablation benchmarks for the
// design choices DESIGN.md calls out.
//
// Experiment benchmarks run at the "micro" scale by default so that
// `go test -bench=.` completes in minutes; set MS_BENCH_SCALE=tiny (or
// small/medium) to regenerate tables with full training budgets, and see
// cmd/msbench for the interactive runner. Each benchmark logs the rendered
// table of its (final) run.

import (
	"math/rand"
	"os"
	"testing"

	ms "modelslicing"
	"modelslicing/internal/data"
	"modelslicing/internal/experiments"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
	"modelslicing/internal/train"
)

func benchScale() experiments.Scale {
	if s := os.Getenv("MS_BENCH_SCALE"); s != "" {
		sc, err := experiments.ParseScale(s)
		if err == nil {
			return sc
		}
	}
	return experiments.Micro
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiments.Run(id, scale, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// --- One benchmark per table and figure of the paper's evaluation. ---

func BenchmarkFig2ResNetTradeoff(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkTable1Scheduling(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig3LowerBound(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4NNLM(b *testing.B)            { benchExperiment(b, "fig4") }
func BenchmarkTable2NNLM(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkTable3Architectures(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig5VGGTradeoff(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkTable4CNNs(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkTable4LargeModels(b *testing.B)   { benchExperiment(b, "table4-large") }
func BenchmarkTable5Cascade(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkFig6GammaEvolution(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7LearningCurves(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8Consistency(b *testing.B)     { benchExperiment(b, "fig8") }

// --- Kernel performance benchmarks. ---

func benchGemm(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	bm := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i], bm[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(tensor.GemmOp{}, n, n, n, a, n, bm, n, c, n)
	}
}

func BenchmarkGemm128(b *testing.B) { benchGemm(b, 128) }
func BenchmarkGemm256(b *testing.B) { benchGemm(b, 256) }
func BenchmarkGemm512(b *testing.B) { benchGemm(b, 512) }

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(16, 16, 3, 3, 1, 1, nn.Fixed(), nn.Fixed(), false, rng)
	x := tensor.New(8, 16, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ctx := nn.Eval(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(ctx, x)
	}
}

func BenchmarkLSTMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := nn.NewLSTM(64, 64, nn.Fixed(), nn.Fixed(), false, rng)
	x := tensor.New(16, 8, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ctx := nn.Eval(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(ctx, x)
	}
}

// BenchmarkSlicedInference* demonstrate the paper's headline law in
// wall-clock time: inference cost is roughly quadratic in the slice rate
// (16× speedup at r = 0.25 per Section 6).
func benchSlicedInference(b *testing.B, r float64) {
	rng := rand.New(rand.NewSource(4))
	m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	x := tensor.New(8, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slicing.Predict(m, rates, r, x)
	}
}

func BenchmarkSlicedInferenceFull(b *testing.B)    { benchSlicedInference(b, 1.0) }
func BenchmarkSlicedInferenceHalf(b *testing.B)    { benchSlicedInference(b, 0.5) }
func BenchmarkSlicedInferenceQuarter(b *testing.B) { benchSlicedInference(b, 0.25) }

// BenchmarkSharedInference* measure the zero-copy serving path: one parent
// weight set, slice rates served as prefix views, activations from a reused
// arena. Compare with BenchmarkSlicedInference* (Forward path) and
// BenchmarkExtractedSubnetInference (materialized deployment copy).
func benchSharedInference(b *testing.B, r float64) {
	rng := rand.New(rand.NewSource(4))
	m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	shared := slicing.NewShared(m, rates)
	arena := tensor.NewArena()
	x := tensor.New(8, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Warm up: the first pass grows the arena to its high-water mark.
	shared.Infer(r, x, arena)
	arena.Reset()
	shared.Infer(r, x, arena)
	arena.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared.Infer(r, x, arena)
		arena.Reset()
	}
}

func BenchmarkSharedInferenceFull(b *testing.B)    { benchSharedInference(b, 1.0) }
func BenchmarkSharedInferenceHalf(b *testing.B)    { benchSharedInference(b, 0.5) }
func BenchmarkSharedInferenceQuarter(b *testing.B) { benchSharedInference(b, 0.25) }

// BenchmarkDenseMLPInferArena pins the allocs/op ≈ 0 property of the
// arena-backed inference path on a Dense MLP.
func BenchmarkDenseMLPInferArena(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	model := models.NewMLP(16, []int{64, 64}, 4, 4, rng)
	rates := slicing.NewRateList(0.25, 4)
	shared := slicing.NewShared(model, rates)
	arena := tensor.NewArena()
	x := tensor.New(32, 16)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	shared.Infer(0.5, x, arena)
	arena.Reset()
	shared.Infer(0.5, x, arena)
	arena.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared.Infer(0.5, x, arena)
		arena.Reset()
	}
}

// BenchmarkExtractedSubnetInference measures the standalone deployed subnet
// (Extract) against the sliced parent at the same rate.
func BenchmarkExtractedSubnetInference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m, _ := models.NewVGG(models.VGG13Mini(4, models.NormGroup, 1), rng)
	rates := slicing.NewRateList(0.25, 4)
	sub := slicing.Extract(m, 0.25, rates)
	x := tensor.New(8, 3, 16, 16)
	ctx := nn.Eval(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.Forward(ctx, x)
	}
}

// --- Ablation benchmarks for DESIGN.md §5 design choices. ---

// ablationTrain trains a sliced MLP on a separable task and logs subnet
// accuracies; the bench time is the cost of the configuration.
func ablationTrain(b *testing.B, groups int, sched func(slicing.RateList) slicing.Scheduler, rescale bool) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(9))
		rates := slicing.NewRateList(0.25, 4)
		model := models.NewMLP(16, []int{32, 32}, 4, groups, rng)
		for _, l := range model.Layers {
			if d, ok := l.(*nn.Dense); ok {
				d.Rescale = rescale
			}
		}
		tr := slicing.NewTrainer(model, rates, sched(rates), train.NewSGD(0.1, 0.9, 1e-4), rng)
		batches := ablationData(rng)
		for epoch := 0; epoch < 8; epoch++ {
			tr.Epoch(batches)
		}
		if i == b.N-1 {
			test := ablationData(rng)
			for j, r := range rates {
				b.Logf("groups=%d rate=%.2f acc=%.3f", groups, r,
					train.Evaluate(model, r, j, test).Accuracy)
			}
		}
	}
}

func ablationData(rng *rand.Rand) []train.Batch {
	var batches []train.Batch
	for k := 0; k < 12; k++ {
		x := tensor.New(16, 16)
		labels := make([]int, 16)
		for i := 0; i < 16; i++ {
			c := rng.Intn(4)
			labels[i] = c
			for j := 0; j < 16; j++ {
				v := rng.NormFloat64() * 0.5
				if j%4 == c {
					v += 2
				}
				x.Set(v, i, j)
			}
		}
		batches = append(batches, train.Batch{X: x, Labels: labels})
	}
	return batches
}

func BenchmarkAblationGroups2(b *testing.B) {
	ablationTrain(b, 2, func(r slicing.RateList) slicing.Scheduler { return slicing.NewRMinMax(r) }, true)
}

func BenchmarkAblationGroups4(b *testing.B) {
	ablationTrain(b, 4, func(r slicing.RateList) slicing.Scheduler { return slicing.NewRMinMax(r) }, true)
}

func BenchmarkAblationGroups8(b *testing.B) {
	ablationTrain(b, 8, func(r slicing.RateList) slicing.Scheduler { return slicing.NewRMinMax(r) }, true)
}

// Rescale ablation: output rescaling stabilizes subnet logit scale in
// stacks without normalization (DESIGN.md §5 item 5).
func BenchmarkAblationRescaleOn(b *testing.B) {
	ablationTrain(b, 4, func(r slicing.RateList) slicing.Scheduler { return slicing.NewRMinMax(r) }, true)
}

func BenchmarkAblationRescaleOff(b *testing.B) {
	ablationTrain(b, 4, func(r slicing.RateList) slicing.Scheduler { return slicing.NewRMinMax(r) }, false)
}

func BenchmarkAblationSchedulerStatic(b *testing.B) {
	ablationTrain(b, 4, func(r slicing.RateList) slicing.Scheduler { return slicing.Static{Rates: r} }, true)
}

func BenchmarkAblationSchedulerWeighted(b *testing.B) {
	ablationTrain(b, 4, func(r slicing.RateList) slicing.Scheduler {
		return slicing.NewRandomWeighted(r, []float64{0.25, 0.125, 0.125, 0.5}, 2)
	}, true)
}

// BenchmarkAblationServingElastic compares the Section 4.1 elastic policy
// with fixed-capacity provisioning under a 16× diurnal workload.
func BenchmarkAblationServingElastic(b *testing.B) {
	benchServingPolicy(b, -1)
}

func BenchmarkAblationServingFixedFull(b *testing.B) {
	benchServingPolicy(b, 1.0)
}

func BenchmarkAblationServingFixedBase(b *testing.B) {
	benchServingPolicy(b, 0.25)
}

func benchServingPolicy(b *testing.B, fixedRate float64) {
	cfg := serving.Config{
		LatencySLO:     100,
		FullSampleTime: 1,
		Rates:          slicing.NewRateList(0.25, 4),
		AccuracyAt:     func(r float64) float64 { return 0.88 + 0.06*r },
	}
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11 + int64(i)))
		arrivals := serving.DiurnalWorkload(500, 40, 16, 0.02, 1.5, rng)
		var stats serving.Stats
		if fixedRate < 0 {
			stats = serving.Simulate(cfg, arrivals)
		} else {
			stats = serving.FixedCapacityBaseline(cfg, fixedRate, arrivals)
		}
		if i == b.N-1 {
			b.Logf("violations=%d utilization=%.3f meanRate=%.3f acc=%.4f",
				stats.SLOViolations, stats.Utilization, stats.MeanRate, stats.WeightedAccuracy)
		}
	}
}

// BenchmarkDataGeneration covers the synthetic substrate generators.
func BenchmarkDataGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data.GenerateImages(data.CIFARLike(200, 100))
		data.GenerateText(data.PTBLike(5000, 1000))
	}
}

var _ = ms.NewRateList // keep the facade linked into the bench binary
