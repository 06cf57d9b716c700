package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {75, 40}, {99, 50}, {100, 50},
	} {
		if got := percentile(vs, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", vs, tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("unsorted input: median = %g, want 2", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty input: %g, want 0", got)
	}
	// p99 of 1..1000 is the 990th value; the input is left untouched.
	var big []float64
	for i := 1000; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if big[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {0, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	// One lane, three operations all due at once; each takes 20ms. The
	// third starts 40ms late, and its latency must include that wait.
	due := []time.Duration{0, 0, 0}
	ops := openLoop(due, 1, func(i, lane int) (outcome, int) {
		time.Sleep(20 * time.Millisecond)
		return outcomeOK, 0
	})
	last := ops[2]
	if last.Late() < 40*time.Millisecond {
		t.Errorf("third op started %v late, want >= 40ms", last.Late())
	}
	if got := last.Latency(); got < 60*time.Millisecond || got != last.End-last.Due {
		t.Errorf("third op latency %v, want >= 60ms measured from its due time", got)
	}
	if service := last.End - last.Start; service >= last.Latency() {
		t.Errorf("service time %v should be below the latency from due %v", service, last.Latency())
	}
}

func TestOpenLoopWaitsForDueTime(t *testing.T) {
	due := []time.Duration{30 * time.Millisecond}
	ops := openLoop(due, 2, func(i, lane int) (outcome, int) { return outcomeOK, 0 })
	if ops[0].Start < 30*time.Millisecond {
		t.Errorf("op sent at %v, before it was due at 30ms", ops[0].Start)
	}
	if ops[0].Late() > 20*time.Millisecond {
		t.Errorf("idle generator ran %v late", ops[0].Late())
	}
}

func TestPoissonScheduleIsSeededAndCounted(t *testing.T) {
	a := poissonSchedule(testRNG(7), 1000, 1000)
	b := poissonSchedule(testRNG(7), 1000, 1000)
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("want exactly 1000 arrivals, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v is out of order", i, a[i])
		}
	}
	if span := a[len(a)-1]; span < 900*time.Millisecond || span > 1100*time.Millisecond {
		t.Errorf("1000 arrivals at 1000/s span %v", span)
	}
}

func TestFailFracAccounting(t *testing.T) {
	ops := []opRecord{
		{Outcome: outcomeOK}, {Outcome: outcomeOK}, {Outcome: outcomeFailed},
		{Outcome: outcomeShed}, {Outcome: outcomeOK},
	}
	a := account(ops)
	if a != (accounting{Sent: 5, OK: 3, Failed: 1, Shed: 1}) {
		t.Fatalf("account = %+v", a)
	}
	if got := a.FailFrac(); got != 0.4 {
		t.Errorf("fail_frac = %g, want 0.4 (failed and shed both count)", got)
	}
	a.add(accounting{Sent: 5, OK: 5})
	if got := a.FailFrac(); got != 0.2 {
		t.Errorf("fail_frac after adding 5 ok = %g, want 0.2", got)
	}
	if (accounting{}).FailFrac() != 0 {
		t.Error("fail_frac of nothing attempted should be 0")
	}
}

func TestFailedOpsMissEveryLatencyLimit(t *testing.T) {
	ops := make([]opRecord, 100)
	for i := range ops {
		ops[i] = opRecord{Due: 0, Start: 0, End: time.Millisecond}
	}
	ops[99].Outcome = outcomeShed
	lat := latenciesMS(ops)
	if !math.IsInf(percentile(lat, 100), 1) {
		t.Error("a shed op should rank above every success")
	}
	if got := percentile(lat, 99); got != 1 {
		t.Errorf("p99 with one miss in 100 = %g, want 1", got)
	}
	pr := summarizePhase(rate{"x", 100}, ops, 10)
	if pr.Pass {
		t.Error("a phase with a shed request must not pass the latency limit")
	}
}

func TestWindowedRateIgnoresOneStalledWindow(t *testing.T) {
	var ops []opRecord
	// 10 windows of 100ms, 10 ops each, except window 3 which stalls.
	for w := 0; w < 10; w++ {
		n := 10
		if w == 3 {
			n = 0
		}
		for i := 0; i < n; i++ {
			end := time.Duration(w)*100*time.Millisecond + time.Duration(i)*time.Millisecond
			ops = append(ops, opRecord{End: end})
		}
	}
	if got := windowedRate(ops, nil, time.Second, 10); got != 100 {
		t.Errorf("windowed rate = %g, want 100/s", got)
	}
	weights := make([]float64, len(ops))
	for i := range weights {
		weights[i] = 3
	}
	if got := windowedRate(ops, weights, time.Second, 10); got != 300 {
		t.Errorf("weighted windowed rate = %g, want 300/s", got)
	}
}

func TestMaxRateInterpolatesTheCrossing(t *testing.T) {
	pass := func(r, score float64) phaseResult { return phaseResult{Achieved: r, Score: score, Pass: true} }
	fail := func(r, score float64) phaseResult { return phaseResult{Achieved: r, Score: score} }
	// Crossing the 10ms limit halfway (in log space) between 2.5ms and 40ms.
	got := maxRate([]phaseResult{pass(100, 1), pass(200, 2.5), fail(300, 40)}, 10)
	if math.Abs(got-250) > 1e-9 {
		t.Errorf("interpolated max rate = %g, want 250", got)
	}
	if got := maxRate([]phaseResult{pass(100, 1), pass(200, 2)}, 10); got != 200 {
		t.Errorf("all steps pass: %g, want the top step's 200", got)
	}
	if got := maxRate([]phaseResult{fail(100, 20)}, 10); got != 0 {
		t.Errorf("no step passes: %g, want 0", got)
	}
	// A failing step after a pass never counts, even if a later one passes.
	if got := maxRate([]phaseResult{pass(100, 1), fail(200, math.Inf(1)), pass(300, 1)}, 10); got != 100 {
		t.Errorf("failure with an infinite score: %g, want 100", got)
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	do := func(seq, lane int) outcome {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return outcomeOK
	}
	out := closedLoop(30*time.Millisecond, 0, 2, do)
	if peak > 2 {
		t.Errorf("%d operations in flight on 2 lanes", peak)
	}
	for lane, ops := range out {
		for i := 1; i < len(ops); i++ {
			if ops[i].Start < ops[i-1].End {
				t.Errorf("lane %d sent op %d before op %d finished", lane, i, i-1)
			}
		}
	}
	counted := closedLoop(0, 25, 2, do)
	if n := len(counted[0]) + len(counted[1]); n != 25 {
		t.Errorf("count-bounded closed loop sent %d operations, want 25", n)
	}
}
