package main

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// arrival is one scheduled query: when it is due, relative to the start of
// the schedule, and which pooled input it carries.
type arrival struct {
	at    time.Duration
	input int
}

// poissonSchedule draws an open-loop arrival schedule of mean rate qps over
// d from seed, in parts of equal length: each part holds exactly its share
// of the arrivals, placed uniformly at random, which is a Poisson process
// conditioned on its count. Fixing the counts keeps the seed from changing
// the offered load, while the arrivals stay as bursty as Poisson ones.
// Inputs are drawn uniformly from a pool of the given size. The same
// arguments always give the same schedule.
func poissonSchedule(seed int64, qps float64, d time.Duration, parts, pool int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	part := d / time.Duration(parts)
	per := int(math.Round(qps * part.Seconds()))
	out := make([]arrival, 0, per*parts)
	for k := 0; k < parts; k++ {
		start := len(out)
		for i := 0; i < per; i++ {
			at := time.Duration(k)*part + time.Duration(rng.Int63n(int64(part)))
			out = append(out, arrival{at: at, input: rng.Intn(pool)})
		}
		slices.SortFunc(out[start:], func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	}
	return out
}

// outcome classifies one query's reply.
type outcome int

const (
	outOK    outcome = iota // 200 with the reference output at its reported rate
	outShed                 // refused by admission control (503 / ErrOverloaded)
	outError                // any other status, transport error or failed Result
	outWrong                // 200 whose output differs from the reference
)

// record is what the generator learns about one query. Stages, server and
// front are filled only by traced sends.
type record struct {
	out outcome
	// latency runs from the scheduled send time to the reply, so a stall in
	// the generator or the server is charged to every query it delays.
	latency time.Duration
	// late is how far behind schedule the send started.
	late time.Duration
	rate float64
	// stages is the server's queued/dispatch/compute/settle breakdown;
	// server is the server-side latency the reply reports.
	stages [4]time.Duration
	server time.Duration
	// front is the embedded caller's Submit-to-Result wall time.
	front time.Duration
}

// sender issues one query whose send was due at due and reports its fate.
type sender func(a arrival, due time.Time) record

// drive replays the schedule open-loop: each query is sent at its due time
// on its own goroutine, whether or not earlier queries have been answered.
// It returns once every query has its record. The number of goroutines is
// bounded by the schedule length. An HTTP send ends by the client timeout at
// the latest, a Submit by the server's one-reply-per-query contract.
func drive(schedule []arrival, send sender) []record {
	recs := make([]record, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range schedule {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = send(a, due)
		}()
	}
	wg.Wait()
	return recs
}

// tally is the open-loop accounting of one measured phase.
type tally struct {
	sent, ok, shed, errors, wrong int
	goodput                       int // ok and within the SLO
	latencies                     []float64
	lates                         []float64
	rateSum                       float64
	rateCount                     map[float64]int
}

func count(recs []record, slo time.Duration) tally {
	t := tally{sent: len(recs), rateCount: map[float64]int{}}
	for _, r := range recs {
		t.lates = append(t.lates, ms(r.late))
		switch r.out {
		case outOK:
			t.ok++
			if r.latency <= slo {
				t.goodput++
			}
			t.latencies = append(t.latencies, ms(r.latency))
			t.rateSum += r.rate
			t.rateCount[r.rate]++
		case outShed:
			t.shed++
		case outError:
			t.errors++
		case outWrong:
			t.wrong++
		}
	}
	return t
}

// split partitions the records of a schedule of length d into n segments
// of equal schedule time.
func split(sched []arrival, recs []record, d time.Duration, n int) [][]record {
	out := make([][]record, n)
	for i, a := range sched {
		k := int(a.at * time.Duration(n) / d)
		out[k] = append(out[k], recs[i])
	}
	return out
}

// share returns the index range [lo, hi) of the schedule that stack i of n
// serves: whole segments, split as evenly as they divide.
func share(sched []arrival, d time.Duration, segments, i, n int) (lo, hi int) {
	from := d * time.Duration(i*segments/n) / time.Duration(segments)
	to := d * time.Duration((i+1)*segments/n) / time.Duration(segments)
	lo, _ = slices.BinarySearchFunc(sched, from, func(a arrival, t time.Duration) int { return cmp.Compare(a.at, t) })
	hi, _ = slices.BinarySearchFunc(sched, to, func(a arrival, t time.Duration) int { return cmp.Compare(a.at, t) })
	return lo, hi
}

// failed counts queries that neither succeeded nor were refused by
// admission control.
func (t tally) failed() int { return t.errors + t.wrong }

func (t tally) meanRate() float64 { return ratio(t.rateSum, float64(t.ok)) }
