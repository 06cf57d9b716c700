package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// vs: the smallest value with at least q% of the samples at or below it.
// vs need not be sorted; it is not modified. An empty slice yields 0.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(vs []float64) float64 { return percentile(vs, 50) }

// tailPercentile picks the highest of p99/p95/p90/p50 that has at least ten
// samples beyond it, so a tail figure is never read off a handful of points.
func tailPercentile(n int) float64 {
	for _, q := range []float64{99, 95, 90} {
		if n-int(math.Ceil(q/100*float64(n))) >= 10 {
			return q
		}
	}
	return 50
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// durationsUS converts durations to float microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// outcome is how one generated operation ended.
type outcome int

const (
	outcomeOK     outcome = iota
	outcomeFailed         // transport error, bad status, ERR cell or wrong result
	outcomeShed           // refused by admission control (429/503)
)

// opRecord is one open- or closed-loop operation, timed on the
// generator's clock (offsets from the phase start).
type opRecord struct {
	Due     time.Duration // when the schedule said to send it
	Start   time.Duration // when a connection actually sent it
	End     time.Duration // when the final response was read
	Outcome outcome
	Polls   int // GET /v1/runs/{id} calls (warm-serve)
}

// Latency is the latency the user saw: measured from the due time, so
// time the request spent waiting for a free connection behind a stall is
// counted, not omitted.
func (o opRecord) Latency() time.Duration { return o.End - o.Due }

// Late is how far behind schedule the generator sent the operation.
func (o opRecord) Late() time.Duration { return o.Start - o.Due }

// accounting tallies a set of operations. A failed or shed operation is
// attempted but not ok; it counts against fail_frac and as a latency-limit
// miss.
type accounting struct {
	Sent, OK, Failed, Shed int
}

func account(ops []opRecord) accounting {
	a := accounting{Sent: len(ops)}
	for _, o := range ops {
		switch o.Outcome {
		case outcomeOK:
			a.OK++
		case outcomeFailed:
			a.Failed++
		case outcomeShed:
			a.Shed++
		}
	}
	return a
}

// FailFrac is failed plus refused operations over operations attempted.
func (a accounting) FailFrac() float64 {
	if a.Sent == 0 {
		return 0
	}
	return float64(a.Failed+a.Shed) / float64(a.Sent)
}

func (a *accounting) add(b accounting) {
	a.Sent += b.Sent
	a.OK += b.OK
	a.Failed += b.Failed
	a.Shed += b.Shed
}

// latenciesMS returns every operation's latency in milliseconds, with
// failed and shed operations as +Inf so they miss any latency limit and
// rank above every success in a percentile.
func latenciesMS(ops []opRecord) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		if o.Outcome != outcomeOK {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(o.Latency()) / 1e6
	}
	return out
}

// rateWindows is how many equal windows a throughput phase is cut into.
const rateWindows = 12

// windowedRate is the median, over n equal windows of dur, of the work
// completed per second in each window: a stall or a burst of neighbour
// load moves one window, not the figure. Each successful operation counts
// its weight (1 when weights is nil) in the window it ended in.
func windowedRate(ops []opRecord, weights []float64, dur time.Duration, n int) float64 {
	w := dur / time.Duration(n)
	counts := make([]float64, n)
	for k, o := range ops {
		if i := int(o.End / w); o.Outcome == outcomeOK && i < n {
			if weights == nil {
				counts[i]++
			} else {
				counts[i] += weights[k]
			}
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}
