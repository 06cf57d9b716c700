package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"duplo/internal/server"
	"duplo/internal/serving"
)

// newClient returns an HTTP client that opens at most conns connections
// to the daemon, so the generator's concurrency is exactly its lane count.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// poissonSchedule draws the due times of an open-loop phase: n Poisson
// arrivals at rate per second from serving's own seeded exponential
// generator. A phase is a fixed number of requests, not a fixed time, so
// the daemon's state after it (how many jobs it retains) is the same on
// every run and every seed.
func poissonSchedule(rng *serving.RNG, rate float64, n int) []time.Duration {
	arr := serving.Exponential{Rate: rate}
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += arr.Sample(rng)
		due[i] = time.Duration(t * 1e9)
	}
	return due
}

// openLoop sends one operation per due time on lanes connections. A lane
// takes the next unsent operation, waits until it is due, and runs it; when
// every lane is busy the operation starts late, and its latency (measured
// from the due time) includes the wait.
func openLoop(due []time.Duration, lanes int, do func(i, lane int) (outcome, int)) []opRecord {
	ops := make([]opRecord, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				oc, polls := do(i, lane)
				ops[i] = opRecord{Due: due[i], Start: start, End: time.Since(t0), Outcome: oc, Polls: polls}
			}
		}(lane)
	}
	wg.Wait()
	return ops
}

// closedLoop runs lanes clients that each send their next operation as
// soon as the previous one completes, until dur has passed or, with n > 0,
// until n operations have been sent in all.
func closedLoop(dur time.Duration, n, lanes int, do func(seq, lane int) outcome) [][]opRecord {
	out := make([][]opRecord, lanes)
	var sent atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				if n > 0 && sent.Add(1) > int64(n) || n <= 0 && time.Since(t0) >= dur {
					return
				}
				start := time.Since(t0)
				oc := do(seq, lane)
				out[lane] = append(out[lane], opRecord{Due: start, Start: start, End: time.Since(t0), Outcome: oc})
			}
		}(lane)
	}
	wg.Wait()
	return out
}

// jobClient submits runs to a daemon and polls them to a terminal state.
type jobClient struct {
	hc   *http.Client
	base string
	rec  *recorder
}

// job submits rq with POST /v1/runs, then GETs /v1/runs/{id} until the job
// is terminal, and returns the final status. id tags the spans; every HTTP
// round trip is appended to rtts.
func (c *jobClient) job(rq server.RunRequest, id int64, lane int, rtts *[]time.Duration) (server.JobStatus, outcome, int, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return server.JobStatus{}, outcomeFailed, 0, err
	}
	root := c.rec.begin("loadgen.job", id, -1, lane)
	defer c.rec.end(root)
	var st server.JobStatus
	code, rtt, err := c.do(http.MethodPost, "/v1/runs", body, &st, "http.POST /v1/runs", id, root, lane)
	*rtts = append(*rtts, rtt)
	if err != nil || code != http.StatusAccepted {
		return st, classify(code), 0, fmt.Errorf("submit: status %d: %v", code, err)
	}
	polls := 0
	for backoff := time.Duration(0); !terminal(st.Status); {
		if polls >= 3 {
			// A memo hit finishes within microseconds; anything slower is
			// polled gently so the generator does not saturate the daemon.
			backoff = min(2*backoff+50*time.Microsecond, 5*time.Millisecond)
			time.Sleep(backoff)
		}
		polls++
		code, rtt, err = c.do(http.MethodGet, "/v1/runs/"+st.ID, nil, &st, "http.GET /v1/runs/{id}", id, root, lane)
		*rtts = append(*rtts, rtt)
		if err != nil || code != http.StatusOK {
			return st, classify(code), polls, fmt.Errorf("poll: status %d: %v", code, err)
		}
	}
	if st.Status != "done" {
		return st, outcomeFailed, polls, fmt.Errorf("job %s ended %s", st.ID, st.Status)
	}
	return st, outcomeOK, polls, nil
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "interrupted"
}

// classify maps an HTTP status to an outcome: admission-control refusals
// are shed, everything else that is not a success is a failure.
func classify(code int) outcome {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		return outcomeShed
	}
	return outcomeFailed
}

// do runs one HTTP call inside a span and decodes a JSON body into v.
func (c *jobClient) do(method, path string, body []byte, v interface{}, spanName string, id int64, parent, lane int) (int, time.Duration, error) {
	sp := c.rec.begin(spanName, id, parent, lane)
	defer c.rec.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(t), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t)
	if err != nil {
		return resp.StatusCode, rtt, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, v); err != nil {
			return resp.StatusCode, rtt, err
		}
	}
	return resp.StatusCode, rtt, nil
}
