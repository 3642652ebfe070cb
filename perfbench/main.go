// Command perfbench is the repository's serving benchmark. It builds a
// model from a seed, saves it as a v3 checkpoint, serves it through the
// program's public entry points (persist.Open/Bind, server.New with its
// Handler or Submit, fleet.New with AddReplica and its Handler), drives it
// with open-loop Poisson load, checks every reply against a reference
// output, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). The last line of standard output is one JSON object.
//
//	go run . --workload cnn-http --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and the meaning of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"modelslicing/internal/fleet"
	"modelslicing/internal/server"
	"modelslicing/internal/tensor"
)

// workload is one traffic mix against one serving stack.
type workload struct {
	name     string
	model    modelKind
	front    front
	qps      float64 // offered load, fixed so a faster engine serves more of it
	replicas int
}

var workloads = []workload{
	{name: "cnn-http", model: vgg, front: frontHTTP, qps: 400, replicas: 1},
	{name: "cnn-embedded", model: vgg, front: frontEmbedded, qps: 2000, replicas: 1},
	{name: "mlp-fleet", model: mlp, front: frontFleet, qps: 800, replicas: 2},
}

const (
	// setupRepeats is how many times a run sets the stack up; setup_s is
	// the median, and the last stack serves the load.
	setupRepeats = 5
	// segmentQueries is how many arrivals each equal part of the measured
	// phase holds. The rate and latency metrics are computed per part and
	// report the median part, so a stall (a noisy neighbour, a GC burst)
	// cannot carry a whole run; 1000 leaves ten samples beyond each part's
	// p99.
	segmentQueries = 1000
	warmup         = time.Second
	// usPerSampleBudget is the time spent timing Shared.Infer per rate.
	usPerSampleBudget = 150 * time.Millisecond
)

// result is what one invocation prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cnn-http, cnn-embedded or mlp-fleet")
	seed := flag.Int64("seed", 1, "seed for weights, inputs and the arrival schedule")
	seconds := flag.Int("seconds", 20, "length of the measured load phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (cnn-http|cnn-embedded|mlp-fleet), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		err = res.Metrics.matchSpec("BENCHMARK.json", *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// counters is a snapshot of the program's own counters, for deltas over a
// measured phase.
type counters struct {
	stats   []server.Stats
	gemm    tensor.GemmCounters
	fleet   fleet.Stats
	accepts int64 // TCP accepts on the replica listeners
}

func (s *stack) counters() counters {
	c := counters{gemm: tensor.GemmStats()}
	for _, r := range s.replicas {
		c.stats = append(c.stats, r.srv.Stats())
		if r.ln != nil {
			c.accepts += r.ln.accepts.Load()
		}
	}
	if s.coord != nil {
		c.fleet = s.coord.Stats()
	}
	return c
}

func run(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")
	if err := writeCheckpoint(path, w.model, seed); err != nil {
		return result{}, err
	}
	p, err := newPool(seed, w.model)
	if err != nil {
		return result{}, err
	}
	orc, err := newOracle(path, w.model, p)
	if err != nil {
		return result{}, err
	}

	fmt.Printf("workload %s: %s, %s front, %.0f qps Poisson for %v, seed %d\n",
		w.name, w.model.name, [...]string{"embedded", "h2c", "h2c coordinator"}[w.front], w.qps, d, seed)
	// The measured schedule is served in contiguous shares by setupRepeats
	// independently set-up stacks, each after its own warm-up, so the luck
	// of one start-up calibration decides only its share of the segments.
	// The last stack stays up for the traced phase.
	segments := max(1, int(w.qps*d.Seconds())/segmentQueries)
	sched := poissonSchedule(seed, w.qps, d, segments, poolSize)
	recs := make([]record, len(sched))
	var st *stack
	var setups, openBinds, news []float64
	for i := 0; i < setupRepeats; i++ {
		// Collect the previous stack's garbage now, so the collector does
		// not share the cores with this stack's start-up calibration.
		runtime.GC()
		s, err := setupStack(w, path, p, orc, traced)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s.setup.Seconds())
		for j := range s.openBind {
			openBinds = append(openBinds, ms(s.openBind[j]))
			news = append(news, ms(s.newTime[j]))
		}
		drive(poissonSchedule(seed+1000+int64(i), w.qps, warmup, 1, poolSize), s.send)
		lo, hi := share(sched, d, segments, i, setupRepeats)
		part := make([]arrival, hi-lo)
		for j, a := range sched[lo:hi] {
			part[j] = arrival{at: a.at - sched[lo].at, input: a.input}
		}
		copy(recs[lo:], drive(part, s.send))
		fmt.Printf("stack %d: set up in %.3f s, served %d queries\n", i, s.setup.Seconds(), hi-lo)
		printCalibration(s, count(recs[lo:hi], slo))
		if i < setupRepeats-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	base := count(recs, slo)
	printTally("untraced", base, st)

	res := result{Correct: base.wrong == 0, Attempted: base.sent, Failed: base.failed(), Metrics: metrics{}}
	if !traced {
		var goodput, p50, p99, rate []float64
		minSamples := len(recs)
		for _, seg := range split(sched, recs, d, segments) {
			t := count(seg, slo)
			goodput = append(goodput, float64(t.goodput)/(d.Seconds()/float64(segments)))
			p50 = append(p50, percentile(t.latencies, 0.5))
			p99 = append(p99, percentile(t.latencies, 0.99))
			rate = append(rate, t.meanRate())
			minSamples = min(minSamples, len(t.latencies))
		}
		fmt.Printf("rate and latency metrics: median of %d segments of %v; fewest latency samples in a segment %d\n",
			segments, d/time.Duration(segments), minSamples)
		m := res.Metrics
		m.set("goodput_qps", median(goodput), "1/s")
		m.set("latency_p50_ms", median(p50), "ms")
		m.set("latency_p99_ms", median(p99), "ms")
		m.set("mean_rate", median(rate), "rate")
		m.set("admitted_frac", 1-ratio(float64(base.shed), float64(base.sent)), "ratio")
		m.set("error_free_frac", 1-ratio(float64(base.failed()), float64(base.sent)), "ratio")
		m.set("setup_s", median(setups), "s")
		return res, nil
	}

	before := st.counters()
	st.traced.Store(true)
	trecs := drive(sched, st.send)
	st.traced.Store(false)
	after := st.counters()
	tr := count(trecs, slo)
	printTally("traced", tr, st)
	printCalibration(st, tr)
	res.Correct = res.Correct && tr.wrong == 0
	res.Attempted += tr.sent
	res.Failed += tr.failed()

	m := res.Metrics
	m.set("persist.open_bind_ms", median(openBinds), "ms")
	m.set("server.new_ms", median(news), "ms")
	m.set("loadgen.late_p99_ms", percentile(base.lates, 0.99), "ms")
	m.set("trace.overhead", ratio(percentile(tr.latencies, 0.5), percentile(base.latencies, 0.5)), "ratio")
	layerMetrics(m, st, trecs, tr, before, after)

	// The model-level timings run on a quiet machine, after the stack is
	// gone, on the same weights built in memory.
	st.close()
	runtime.GC()
	workers := min(4, runtime.GOMAXPROCS(0)) // server.Config's default
	shard := max(1, int(math.Round(m["server.batch_mean"].Value/float64(workers))))
	ups, err := usPerSample(w.model.build(newRand(seed)), w.model.inputShape, shard, seed, usPerSampleBudget)
	if err != nil {
		return result{}, err
	}
	for _, r := range rates {
		m.set("slicing.us_per_sample."+rateName(r), ups[r], "us")
	}
	led, err := layerLedger(vgg.build(newRand(seed)), vgg.inputShape, seed)
	if err != nil {
		return result{}, err
	}
	if !ledgerMetrics(m, led) {
		fmt.Fprintf(os.Stderr, "perfbench: per-layer ledger does not add up to the whole model within %.0f%%\n", 100*maxLedgerGap)
		res.Correct = false
	}
	return res, nil
}

func printTally(phase string, t tally, st *stack) {
	fmt.Printf("%s: sent %d, succeeded %d (within SLO %d), shed %d, failed %d (wrong outputs %d); shed_frac %.4f error_frac %.4f; latency samples %d; generator late p99 %.3f ms",
		phase, t.sent, t.ok, t.goodput, t.shed, t.failed(), t.wrong,
		ratio(float64(t.shed), float64(t.sent)), ratio(float64(t.failed()), float64(t.sent)),
		len(t.latencies), percentile(t.lates, 0.99))
	if st.frontLn != nil {
		fmt.Printf("; client connections %d", st.frontLn.accepts.Load())
	}
	fmt.Println()
}

// printCalibration shows the served-rate mix beside the first replica's
// calibrated t(r) at start-up and now.
func printCalibration(st *stack, t tally) {
	for _, r := range rates {
		fmt.Printf("  rate %-4g served %5.1f%%  t(r) %7.1f µs at start, %7.1f µs now\n", r,
			100*ratio(float64(t.rateCount[r]), float64(t.ok)),
			1e6*st.replicas[0].t0[r], 1e6*st.replicas[0].srv.Calibrator().SampleTime(r))
	}
}

// layerMetrics derives the per-layer metrics of the traced phase from the
// records, the taps and the program's counters.
func layerMetrics(m metrics, st *stack, recs []record, t tally, before, after counters) {
	var wire, queued, dispatch, compute, settle []float64
	for _, r := range recs {
		if r.out != outOK {
			continue
		}
		if st.w.front == frontEmbedded {
			wire = append(wire, us(r.front-r.server))
		}
		queued = append(queued, ms(r.stages[0]))
		dispatch = append(dispatch, ms(r.stages[1]))
		compute = append(compute, ms(r.stages[2]))
		settle = append(settle, us(r.stages[3]))
	}
	for _, r := range st.replicas {
		if r.tap != nil {
			wire = append(wire, r.tap.wireSamples()...)
		}
	}
	m.set("server.wire_us.p50", percentile(wire, 0.5), "us")
	m.set("server.wire_us.p99", percentile(wire, 0.99), "us")
	m.set("server.queued_ms.p50", percentile(queued, 0.5), "ms")
	m.set("server.dispatch_ms.p99", percentile(dispatch, 0.99), "ms")
	m.set("server.compute_ms.p50", percentile(compute, 0.5), "ms")
	m.set("server.settle_us.p99", percentile(settle, 0.99), "us")

	var processed, batches, degraded, infeasible float64
	for i := range st.replicas {
		b, a := before.stats[i], after.stats[i]
		processed += float64(a.Processed - b.Processed)
		batches += float64(a.Batches - b.Batches)
		degraded += float64(a.DegradedBatches - b.DegradedBatches)
		infeasible += float64(a.InfeasibleBatches - b.InfeasibleBatches)
	}
	m.set("server.batch_mean", ratio(processed, batches), "count")
	m.set("server.degraded_frac", ratio(degraded, batches), "ratio")
	m.set("server.infeasible_frac", ratio(infeasible, batches), "ratio")

	for _, r := range rates {
		drift := 0.0
		for _, rep := range st.replicas {
			drift += ratio(rep.srv.Calibrator().SampleTime(r), rep.t0[r])
		}
		m.set("serving.t_drift."+rateName(r), drift/float64(len(st.replicas)), "ratio")
		m.set("slicing.rate_share."+rateName(r), ratio(float64(t.rateCount[r]), float64(t.ok)), "ratio")
	}

	var vec, scalar float64
	for i := range after.gemm.Kernels {
		vec += float64(after.gemm.Kernels[i].Vector - before.gemm.Kernels[i].Vector)
		scalar += float64(after.gemm.Kernels[i].Scalar - before.gemm.Kernels[i].Scalar)
	}
	m.set("tensor.fanouts_per_query", ratio(float64(after.gemm.Fanouts-before.gemm.Fanouts), processed), "count")
	m.set("tensor.scalar_kernel_frac", ratio(scalar, vec+scalar), "ratio")

	// Fleet metrics read 0 where no coordinator is on the path.
	var overhead []float64
	var queries, attempts, hedges, conns, skew float64
	if st.coord != nil {
		overhead = st.coordTap.samples()
		b, a := before.fleet, after.fleet
		queries = float64(a.Forwarded - b.Forwarded + a.Shed - b.Shed)
		hedges = float64(a.Hedges - b.Hedges)
		most := 0.0
		for i := range a.Replicas {
			routed := float64(a.Replicas[i].Routed - b.Replicas[i].Routed)
			attempts += routed
			most = max(most, routed)
		}
		skew = ratio(most, attempts/float64(len(a.Replicas)))
		conns = ratio(float64(after.accepts-before.accepts), float64(a.Forwarded-b.Forwarded))
	}
	m.set("fleet.overhead_us.p50", percentile(overhead, 0.5), "us")
	m.set("fleet.overhead_us.p99", percentile(overhead, 0.99), "us")
	m.set("fleet.attempts_per_query", ratio(attempts, queries), "count")
	m.set("fleet.hedge_frac", ratio(hedges, queries), "ratio")
	m.set("fleet.route_skew", skew, "ratio")
	m.set("fleet.conns_per_query", conns, "count")
}
