package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/server"
	"duplo/internal/sim"
	"duplo/internal/store"
)

// warmSetups is how many times a warm workload builds its store and boots
// its daemon; setup_s is the median.
const warmSetups = 3

// warmState is a filled store with a daemon serving it.
type warmState struct {
	dir   string
	opts  experiments.Options
	cells []cell
	truth []sim.Result // ground truth per cell, from the filling runner
	d     *daemon
}

// setupWarm fills a fresh store at warmScale by running sweeps through an
// in-process Runner (the duploexp -store path), records ground truth for
// the Fig. 9 catalog, boots duploserved over the store, and then runs
// prime against it. It repeats the whole set-up warmSetups times, keeps
// the last and reports the median time.
func setupWarm(e *env, sweeps []string, prime func(*warmState) error) (*warmState, float64, error) {
	var times []float64
	var ws *warmState
	for i := 0; i < warmSetups; i++ {
		if ws != nil {
			if _, err := ws.d.stop(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		ws, err = fillWarm(e, fmt.Sprintf("store%d", i), sweeps)
		if err == nil {
			err = prime(ws)
		}
		if err != nil {
			if ws != nil && ws.d != nil {
				ws.d.stop() //nolint:errcheck // already failing
			}
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ws, median(times), nil
}

func fillWarm(e *env, name string, sweeps []string) (*warmState, error) {
	ws := &warmState{dir: filepath.Join(e.runDir, name), cells: fig9Cells()}
	st, err := store.Open(ws.dir)
	if err != nil {
		return nil, err
	}
	ws.opts = experiments.Options{MaxCTAs: warmScale.CTAs, SimSMs: warmScale.SMs, Workers: e.nproc, Seed: e.seed}
	opts := ws.opts
	opts.Store = st
	r := experiments.NewRunner(opts)
	for _, id := range sweeps {
		sw, ok := r.Sweep(id)
		if !ok {
			return nil, fmt.Errorf("no sweep %q", id)
		}
		if _, err := sw.Run(); err != nil {
			return nil, fmt.Errorf("fill %s: %w", id, err)
		}
	}
	if ws.truth, err = groundTruth(r, ws.cells); err != nil {
		return nil, err
	}
	ws.d, err = startDaemon(e.bin, ws.dir, warmScale, e.seed)
	return ws, err
}

// statsDelta is the daemon counters' change over a measured interval.
type statsDelta struct {
	Execs, StoreHits, SweepExecs, JobsDone, JobsShed, SweepsShed int64
	Store                                                        store.Counters
}

func (d *statsDelta) add(o statsDelta) {
	d.Execs += o.Execs
	d.StoreHits += o.StoreHits
	d.SweepExecs += o.SweepExecs
	d.JobsDone += o.JobsDone
	d.JobsShed += o.JobsShed
	d.SweepsShed += o.SweepsShed
	d.Store.Hits += o.Store.Hits
	d.Store.Puts += o.Store.Puts
	d.Store.PutErrors += o.Store.PutErrors
	d.Store.Corruptions += o.Store.Corruptions
}

func deltaOf(a, b server.StatsZ) statsDelta {
	d := statsDelta{
		Execs: b.Execs - a.Execs, StoreHits: b.StoreHits - a.StoreHits, SweepExecs: b.SweepExecs - a.SweepExecs,
		JobsDone: int64(b.JobsDone - a.JobsDone), JobsShed: b.JobsShed - a.JobsShed, SweepsShed: b.SweepsShed - a.SweepsShed,
	}
	if a.Store != nil && b.Store != nil {
		d.Store = store.Counters{
			Hits: b.Store.Hits - a.Store.Hits, Puts: b.Store.Puts - a.Store.Puts, PutErrors: b.Store.PutErrors - a.Store.PutErrors,
			Corruptions: b.Store.Corruptions - a.Store.Corruptions,
		}
	}
	return d
}

// microRounds is how many passes over the catalog each micro-measurement
// makes.
const microRounds = 5

// measureStore times store.Put and store.Get on the catalog's records in
// a scratch store (keys are the benchmark's own; the cost depends on the
// record, not the key), and reports the mean record size on disk.
func measureStore(e *env, records []store.Record, pm metrics) error {
	rec := e.rec
	lane := rec.lane("store")
	var puts, gets []time.Duration
	var size int64
	for round := 0; round < microRounds; round++ {
		st, err := store.Open(filepath.Join(e.runDir, fmt.Sprintf("micro-store%d", round)))
		if err != nil {
			return err
		}
		for i, r := range records {
			key := fmt.Sprintf("perfbench|%d", i)
			sp := rec.begin("store.Put", int64(i), -1, lane)
			t := time.Now()
			err := st.Put(key, r)
			puts = append(puts, time.Since(t))
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("store put: %w", err)
			}
			if round == 0 {
				fi, err := os.Stat(st.Path(key))
				if err != nil {
					return err
				}
				size += fi.Size()
			}
		}
		for i, r := range records {
			sp := rec.begin("store.Get", int64(i), -1, lane)
			t := time.Now()
			got, ok := st.Get(fmt.Sprintf("perfbench|%d", i))
			gets = append(gets, time.Since(t))
			rec.end(sp)
			e.checkf(ok && got == r, "store micro: record %d did not round-trip", i)
		}
	}
	pm.set("store.put_us", "us", median(durationsUS(puts)))
	pm.set("store.get_us", "us", median(durationsUS(gets)))
	pm.set("store.record_bytes", "bytes", float64(size)/float64(len(records)))
	return nil
}

// measureRunner times Runner.RunCtx over a warm store: the first call per
// cell on a fresh runner is a store hit, the next ones memo hits.
func measureRunner(e *env, ws *warmState, pm metrics) error {
	rec := e.rec
	lane := rec.lane("experiments")
	var storeHits, memoHits []time.Duration
	for round := 0; round < microRounds; round++ {
		st, err := store.Open(ws.dir)
		if err != nil {
			return err
		}
		opts := ws.opts
		opts.Store = st
		r := experiments.NewRunner(opts)
		for pass := 0; pass < 2; pass++ {
			for i, c := range ws.cells {
				k, err := c.Kernel()
				if err != nil {
					return err
				}
				cfg := c.Config(ws.opts)
				sp := rec.begin("experiments.Runner.RunCtx", int64(i), -1, lane)
				t := time.Now()
				res, err := r.RunCtx(context.Background(), k, cfg)
				d := time.Since(t)
				rec.end(sp)
				if err != nil {
					return err
				}
				e.checkf(sameResult(runResultOf(res), ws.truth[i]),
					"runner micro: %s differs from ground truth", c.Name())
				if pass == 0 {
					storeHits = append(storeHits, d)
				} else {
					memoHits = append(memoHits, d)
				}
			}
		}
		cs := r.CacheStats()
		n := int64(len(ws.cells))
		e.checkf(cs.Execs == 0 && cs.StoreHits == n && cs.MemHits == n,
			"runner micro: want 0 execs, %d store hits, %d memo hits; got %+v", n, n, cs)
	}
	pm.set("experiments.store_hit_us", "us", median(durationsUS(storeHits)))
	pm.set("experiments.memo_hit_us", "us", median(durationsUS(memoHits)))
	return nil
}

// measureHandler drives an in-process server, configured like a
// duploserved with default flags over the warm store, through
// Handler().ServeHTTP on an in-memory recorder: the server's own cost
// with no socket. It submits jobs jobs in all, the catalog once and then
// round after round of it, so the server retains as many jobs as the
// daemon did; the catalog's first pass (the daemon's priming) is not
// timed. It returns every timed handler call and each timed job's total
// (its POST and polls), and also times journal Start+End pairs.
func measureHandler(e *env, ws *warmState, jobs int, pm metrics) (calls, perJob []time.Duration, err error) {
	rec := e.rec
	lane := rec.lane("server")
	st, err := store.Open(ws.dir)
	if err != nil {
		return nil, nil, err
	}
	st.EnableResilience(store.ResilienceConfig{FailureThreshold: 5, OpenFor: 5 * time.Second, Retries: 2, Seed: e.seed})
	jl, err := server.OpenJournal(filepath.Join(e.runDir, "micro-journal.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	defer jl.Close()
	srv := server.New(server.Config{
		Options: ws.opts, Store: st, MaxInflight: 16, QueueCap: 64, MaxSweeps: 4,
		JobTTL: time.Hour, MaxBodyBytes: 1 << 20, Journal: jl,
	})
	h := srv.Handler()
	serve := func(method, path string, body []byte, name string, id int64) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		sp := rec.begin(name, id, -1, lane)
		t := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t)
		rec.end(sp)
		return w, d
	}
	var submits, polls []time.Duration
	for k := 0; k < jobs; k++ {
		i := k % len(ws.cells)
		c := ws.cells[i]
		timed := k >= len(ws.cells)
		body, err := json.Marshal(c.Request())
		if err != nil {
			return nil, nil, err
		}
		w, d := serve(http.MethodPost, "/v1/runs", body, "server.Handler POST /v1/runs", int64(i))
		var js server.JobStatus
		if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &js) != nil {
			return nil, nil, fmt.Errorf("in-process submit %s: status %d", c.Name(), w.Code)
		}
		total := d
		if timed {
			submits, calls = append(submits, d), append(calls, d)
		}
		for !terminal(js.Status) {
			w, d = serve(http.MethodGet, "/v1/runs/"+js.ID, nil, "server.Handler GET /v1/runs/{id}", int64(i))
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &js) != nil {
				return nil, nil, fmt.Errorf("in-process poll %s: status %d", c.Name(), w.Code)
			}
			total += d
			if timed {
				polls, calls = append(polls, d), append(calls, d)
			}
		}
		if timed {
			perJob = append(perJob, total)
		}
		e.checkf(js.Status == "done" && js.Result != nil && sameResult(*js.Result, ws.truth[i]),
			"in-process server: %s result differs from ground truth", c.Name())
	}
	pm.set("server.submit_us.p50", "us", percentile(durationsUS(submits), 50))
	pm.set("server.submit_us.p99", "us", percentile(durationsUS(submits), tailPercentile(len(submits))))
	pm.set("server.poll_us.p50", "us", percentile(durationsUS(polls), 50))
	pm.set("server.poll_us.p99", "us", percentile(durationsUS(polls), tailPercentile(len(polls))))

	var journal []time.Duration
	for i, c := range ws.cells {
		id := fmt.Sprintf("j%06d", i)
		sp := rec.begin("server.Journal Start+End", int64(i), -1, lane)
		t := time.Now()
		jl.Start(id, c.Request())
		jl.End(id, "done")
		journal = append(journal, time.Since(t))
		rec.end(sp)
	}
	pm.set("server.journal_us", "us", median(durationsUS(journal)))
	return calls, perJob, nil
}

// daemonCounters turns /statsz deltas into the per-layer counters. Every
// job is exactly one RunCtx call, so its memo hits are the jobs neither
// simulated nor read from the store.
func daemonCounters(d statsDelta, pm metrics) {
	pm.set("sim.runs", "count", float64(d.Execs+d.SweepExecs))
	pm.set("experiments.execs", "count", float64(d.Execs+d.SweepExecs))
	pm.set("store.hits", "count", float64(d.Store.Hits))
	pm.set("store.written", "count", float64(d.Store.Puts))
	pm.set("store.corrupt", "count", float64(d.Store.Corruptions))
	pm.set("store.put_errors", "count", float64(d.Store.PutErrors))
	pm.set("server.jobs_shed", "count", float64(d.JobsShed))
	pm.set("server.sweeps_shed", "count", float64(d.SweepsShed))
}

func loadgenCounters(a accounting, late []time.Duration, pm metrics) {
	pm.set("loadgen.late_p99_ms", "ms", percentile(durationsMS(late), tailPercentile(len(late))))
	pm.set("loadgen.sent", "count", float64(a.Sent))
	pm.set("loadgen.ok", "count", float64(a.OK))
	pm.set("loadgen.failed", "count", float64(a.Failed))
	pm.set("loadgen.shed", "count", float64(a.Shed))
	pm.set("loadgen.fail_frac", "ratio", a.FailFrac())
}

func recordsOf(res []sim.Result) []store.Record {
	out := make([]store.Record, len(res))
	for i, r := range res {
		out[i] = store.RecordOf(r)
	}
	return out
}
