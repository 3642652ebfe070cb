package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"modelslicing/internal/nn"
	"modelslicing/internal/tensor"
)

// The per-layer ledger times the program's layers from outside: each child
// of the fused inference view (nn.Fuse) runs alone through nn.Infer on the
// input the chain hands it, and the children's times must add up to the
// whole-model Shared.Infer time.

const (
	// ledgerBatch is the batch the ledger times: about one worker's shard of
	// a T/2 window at the cnn-embedded load (2000 qps · 25 ms / 2 workers).
	ledgerBatch = 24
	ledgerReps  = 100
	// maxLedgerGap is the largest accepted relative gap between the
	// children's sum and the whole model.
	maxLedgerGap = 0.05
)

// layerKinds are the ledger's layer kinds, in report order.
var layerKinds = []string{"conv", "norm", "pool", "dense", "other"}

func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D, *nn.FusedConvAct:
		return "conv"
	case *nn.GroupNorm, *nn.BatchNorm, *nn.SwitchableBatchNorm, *nn.FusedNormAct:
		return "norm"
	case *nn.MaxPool2D, *nn.GlobalAvgPool:
		return "pool"
	case *nn.Dense, *nn.FusedDenseAct:
		return "dense"
	}
	return "other"
}

// ledgerRate is the ledger at one rate, in µs per batch.
type ledgerRate struct {
	whole  float64
	byKind map[string]float64
}

func (l ledgerRate) sum() float64 {
	s := 0.0
	for _, v := range l.byKind {
		s += v
	}
	return s
}

// gap is the relative difference between the children's sum and the whole.
func (l ledgerRate) gap() float64 { return math.Abs(l.sum()-l.whole) / l.whole }

// layerLedger times every child of nn.Fuse(net) and the whole Shared.Infer
// at every rate, interleaved rep by rep so interference hits both sides
// alike, and keeps the mean of each over the same reps: means add up, so the
// children's means sum to the mean time of the chain they form, while
// medians of short and long operations see interference differently and do
// not.
func layerLedger(net *nn.Sequential, inputShape []int, seed int64) ([]ledgerRate, error) {
	shared, err := newShared(net)
	if err != nil {
		return nil, err
	}
	fused, ok := nn.Fuse(net).(*nn.Sequential)
	if !ok {
		return nil, fmt.Errorf("ledger: fused model is not a Sequential")
	}
	x := randomBatch(newRand(seed+2), ledgerBatch, inputShape)
	arena := tensor.NewArena()
	var out []ledgerRate
	for idx, r := range rates {
		ctx := &nn.Context{Rate: r, WidthIdx: idx, Tier: shared.Tier(), Arena: arena}
		whole := make([]float64, 0, ledgerReps)
		child := make([][]float64, len(fused.Layers))
		wholeRun := func(keep bool) {
			t := time.Now()
			shared.Infer(r, x, arena)
			d := time.Since(t)
			arena.Reset()
			if keep {
				whole = append(whole, us(d))
			}
		}
		// The children run as a chain, each on its predecessor's output, so
		// each sees the data and cache state it sees inside the model.
		chainRun := func(keep bool) {
			cur := x
			for i, l := range fused.Layers {
				t := time.Now()
				cur = nn.Infer(l, ctx, cur)
				d := time.Since(t)
				if keep {
					child[i] = append(child[i], us(d))
				}
			}
			arena.Reset()
		}
		for rep := -2; rep < ledgerReps; rep++ { // two warm-up reps
			// Alternate which side runs first, so neither always finds the
			// caches the other warmed.
			if rep%2 == 0 {
				wholeRun(rep >= 0)
				chainRun(rep >= 0)
			} else {
				chainRun(rep >= 0)
				wholeRun(rep >= 0)
			}
		}
		// Drop whole reps, both sides together, whose total is in the slowest
		// tenth: a preempted rep says nothing about the layers.
		totals := make([]float64, len(whole))
		for rep := range whole {
			totals[rep] = whole[rep]
			for i := range child {
				totals[rep] += child[i][rep]
			}
		}
		cut := percentile(totals, 0.9)
		var kept int
		lr := ledgerRate{byKind: map[string]float64{}}
		for rep, tot := range totals {
			if tot > cut {
				continue
			}
			kept++
			lr.whole += whole[rep]
			for i, l := range fused.Layers {
				lr.byKind[kindOf(l)] += child[i][rep]
			}
		}
		lr.whole /= float64(kept)
		for k := range lr.byKind {
			lr.byKind[k] /= float64(kept)
		}
		out = append(out, lr)
	}
	return out, nil
}

// usPerSample times Shared.Infer at each rate on a batch of n samples for
// about budget per rate and returns the median µs per sample.
func usPerSample(net nn.Layer, inputShape []int, n int, seed int64, budget time.Duration) (map[float64]float64, error) {
	shared, err := newShared(net)
	if err != nil {
		return nil, err
	}
	x := randomBatch(newRand(seed+3), n, inputShape)
	arena := tensor.NewArena()
	out := map[float64]float64{}
	for _, r := range rates {
		shared.Infer(r, x, arena) // warm the per-width packs
		arena.Reset()
		var ts []float64
		for end := time.Now().Add(budget); time.Now().Before(end) || len(ts) < 5; {
			t := time.Now()
			shared.Infer(r, x, arena)
			ts = append(ts, us(time.Since(t))/float64(n))
			arena.Reset()
		}
		out[r] = median(ts)
	}
	return out, nil
}

func randomBatch(rng *rand.Rand, n int, shape []int) *tensor.Tensor {
	x := tensor.New(append([]int{n}, shape...)...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// ledgerMetrics reports the ledger: per-kind µs per batch at every rate, the
// sum check, and each kind's cost at r = 0.25 and 0.5 relative to full
// width (the paper's cost model predicts r²: 0.0625 and 0.25). It reports
// whether every rate passed the sum check.
func ledgerMetrics(m metrics, led []ledgerRate) (ok bool) {
	ok = true
	full := led[len(led)-1]
	for i, r := range rates {
		lr := led[i]
		m.set("nn.ledger_gap."+rateName(r), lr.gap(), "ratio")
		ok = ok && lr.gap() <= maxLedgerGap
		for _, k := range layerKinds {
			if k == "other" && full.byKind[k] == 0 {
				continue // VGG13Mini has no child outside the other four kinds
			}
			m.set("nn."+k+".us."+rateName(r), lr.byKind[k], "us")
			if r == 0.25 || r == 0.5 {
				m.set("nn."+k+".cost_ratio."+rateName(r), ratio(lr.byKind[k], full.byKind[k]), "ratio")
			}
		}
		if r == 0.25 || r == 0.5 {
			m.set("nn.model.cost_ratio."+rateName(r), lr.whole/full.whole, "ratio")
		}
	}
	return ok
}
