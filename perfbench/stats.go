package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest value with at least q·n values at or below it. Zero for an empty
// sample. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// median is the middle value of xs, or the mean of the two middle values
// when there is an even number, so that a sample split half and half between
// two levels reads between them rather than at the lower one. Zero for an
// empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return percentile(xs, 0.5)
	}
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a count over an empty denominator).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects reported numbers by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// matchSpec checks that m holds exactly the metrics, with the units, that
// the benchmark file at path declares for the run's kind (per_layer for a
// traced run, end_to_end otherwise), and that every value is finite.
func (m metrics) matchSpec(path string, traced bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok || got.Unit != w.Unit {
			return fmt.Errorf("%s declares metric %s in %s, the run reported %+v", path, w.Name, w.Unit, got)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", w.Name, got.Value)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("the run reported %d metrics, %s declares %d", len(m), path, len(want))
	}
	return nil
}

// rateName formats a slice rate as a metric-name suffix (0.25, 0.5, 1).
func rateName(r float64) string { return fmt.Sprintf("%g", r) }
