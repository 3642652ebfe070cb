package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestScheduleIsDeterministic(t *testing.T) {
	a := poissonSchedule(7, 600, 2*time.Second, 4, poolSize)
	b := poissonSchedule(7, 600, 2*time.Second, 4, poolSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 600, 2*time.Second, 4, poolSize)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Exactly qps·d arrivals, a quarter in each half-second part, in order,
	// inside the window, on pooled inputs.
	if n := len(a); n != 1200 {
		t.Fatalf("%d arrivals, want 1200", n)
	}
	recs := make([]record, len(a))
	for i, x := range a {
		if x.at < 0 || x.at >= 2*time.Second || x.input < 0 || x.input >= poolSize {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d before its predecessor", i)
		}
	}
	for k, seg := range split(a, recs, 2*time.Second, 4) {
		if len(seg) != 300 {
			t.Errorf("segment %d holds %d arrivals, want 300", k, len(seg))
		}
	}
	// Three stacks serve the four segments in contiguous whole-segment shares.
	next := 0
	for i, want := range []int{300, 300, 600} {
		lo, hi := share(a, 2*time.Second, 4, i, 3)
		if lo != next || hi-lo != want {
			t.Errorf("share %d = [%d, %d), want [%d, %d)", i, lo, hi, next, next+want)
		}
		next = hi
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, n := range []string{"goodput_qps", "nn.conv.us.0.25", "fleet.overhead_us.p99", "cnn-http", "9lives"} {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", string(make([]byte, 65))} {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
}

// TestBenchmarkFileMatchesProgram checks BENCHMARK.json against the
// workloads the program runs and the metric names it can report.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, w := range spec.Workloads {
		if !validName(w.Name) || !slices.Contains(names, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is invalid or not in the program", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !validName(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestOracleCheck(t *testing.T) {
	o := &oracle{ref: [][][]float64{{{1}, {2}, {3}, {4}}}}
	for _, c := range []struct {
		rate float64
		out  []float64
		want outcome
	}{
		{0.25, []float64{1}, outOK},
		{1, []float64{4 + 1e-13}, outOK},
		{1, []float64{4 + 1e-9}, outWrong},
		{0.5, []float64{1}, outWrong}, // right output, wrong rate
		{0.3, []float64{1}, outWrong}, // not a deployable rate
		{0.25, []float64{1, 0}, outWrong},
	} {
		if got := o.check(0, c.rate, c.out); got != c.want {
			t.Errorf("check(rate %v, %v) = %v, want %v", c.rate, c.out, got, c.want)
		}
	}
}

// validName reports whether name is a legal metric or workload name: it
// starts with a letter or digit and has at most 64 letters, digits, '_', '.'
// and '-'.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}
