package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/server"
	"duplo/internal/serving"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// sweepRotation is the order each warm-sweep client streams sweeps in;
// the seed picks each client's starting point.
var sweepRotation = []string{"fig9", "fig10", "fig12", "cluster"}

// sweepRef is the in-process render of one sweep over the warm store by a
// fresh runner: what every stream of it must reproduce.
type sweepRef struct {
	Table    []byte   // server.TableJSON encoding of the table
	Progress []string // progress lines, sorted
	Stats    experiments.CacheStats
	Events   int64 // DES events (cluster only)
}

// renderRef renders one sweep in process the way the daemon's sweep
// handler does: a fresh runner over the shared store, progress on.
func renderRef(ws *warmState, id string) (sweepRef, error) {
	st, err := store.Open(ws.dir)
	if err != nil {
		return sweepRef{}, err
	}
	var ref sweepRef
	opts := ws.opts
	opts.Store = st
	opts.Verbose = true
	var mu sync.Mutex
	opts.Progress = func(line string) {
		mu.Lock()
		ref.Progress = append(ref.Progress, line)
		mu.Unlock()
	}
	r := experiments.NewRunner(opts)
	sw, ok := r.Sweep(id)
	if !ok {
		return ref, fmt.Errorf("no sweep %q", id)
	}
	tbl, err := sw.Run()
	if err != nil {
		return ref, fmt.Errorf("render %s: %w", id, err)
	}
	for _, line := range ref.Progress {
		ref.Events += eventsIn(line)
	}
	sort.Strings(ref.Progress)
	ref.Table, err = json.Marshal(server.TableJSON{Title: tbl.Title, Headers: tbl.Headers(), Rows: tbl.Rows(), Note: tbl.Note})
	ref.Stats = r.CacheStats()
	return ref, err
}

var eventsRE = regexp.MustCompile(`\((\d+) events\)$`)

// eventsIn reads the DES event count from a cluster progress line.
func eventsIn(line string) int64 {
	m := eventsRE.FindStringSubmatch(line)
	if m == nil {
		return 0
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

// streamEvent is one NDJSON line of GET /v1/sweeps/{id}, with the table
// kept as raw bytes for a byte-equal comparison.
type streamEvent struct {
	Type      string          `json:"type"`
	Message   string          `json:"message"`
	Table     json.RawMessage `json:"table"`
	Execs     int64           `json:"execs"`
	StoreHits int64           `json:"store_hits"`
	Predicted int64           `json:"predicted"`
}

// daemonMaxSweeps is duploserved's default -max-sweeps: it refuses a
// stream beyond that many concurrent ones with a 503.
const daemonMaxSweeps = 4

// streamSweep reads one whole sweep stream and checks it against ref.
// It returns the done event's store hits and the HTTP status, so the
// caller can tell an admission refusal from a wrong answer.
func streamSweep(hc *http.Client, base, id string, ref sweepRef, rec *recorder, spanID int64, lane int) (int64, int, error) {
	sp := rec.begin("loadgen.stream "+id, spanID, -1, lane)
	defer rec.end(sp)
	resp, err := hc.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, resp.StatusCode, fmt.Errorf("sweep %s: %s", id, resp.Status)
	}
	hits, err := readStream(resp.Body, id, ref)
	return hits, resp.StatusCode, err
}

// readStream reads a sweep's NDJSON events and checks them against ref.
func readStream(body io.Reader, id string, ref sweepRef) (int64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var progress []string
	var table []byte
	var done *streamEvent
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, fmt.Errorf("sweep %s: bad event: %w", id, err)
		}
		switch ev.Type {
		case "progress":
			progress = append(progress, ev.Message)
		case "table":
			table = append([]byte(nil), ev.Table...)
		case "error":
			return 0, fmt.Errorf("sweep %s: error event: %s", id, oneLine(sc.Text()))
		case "done":
			done = &ev
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("sweep %s: %w", id, err)
	}
	switch {
	case done == nil:
		return 0, fmt.Errorf("sweep %s: stream ended without a done event", id)
	case !bytes.Equal(table, ref.Table):
		return 0, fmt.Errorf("sweep %s: streamed table differs from the in-process render", id)
	case done.Execs != 0 || done.Predicted != 0:
		return 0, fmt.Errorf("sweep %s: %d cells simulated, %d predicted; want 0", id, done.Execs, done.Predicted)
	case done.StoreHits != ref.Stats.StoreHits:
		return 0, fmt.Errorf("sweep %s: %d store hits, in-process render had %d", id, done.StoreHits, ref.Stats.StoreHits)
	}
	sort.Strings(progress)
	if strings.Join(progress, "\n") != strings.Join(ref.Progress, "\n") {
		return 0, fmt.Errorf("sweep %s: progress lines differ from the in-process render", id)
	}
	return done.StoreHits, nil
}

func runWarmSweep(e *env) (*outcomeOf, error) {
	out := &outcomeOf{E2E: metrics{}, Named: metrics{}, PerLayer: metrics{}, Phases: map[string]accounting{}, Extra: map[string]interface{}{}}
	var refs map[string]sweepRef
	ws, setupS, err := setupWarm(e, sweepRotation, func(ws *warmState) error {
		refs = map[string]sweepRef{}
		for _, id := range sweepRotation {
			ref, err := renderRef(ws, id)
			if err != nil {
				return err
			}
			refs[id] = ref
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if ws.d != nil {
			ws.d.stop() //nolint:errcheck // error paths only; the success path stops it below
		}
	}()
	out.E2E.set("setup_s", "s", setupS)

	before, err := ws.d.statsz()
	if err != nil {
		return nil, err
	}
	// One closed-loop client per CPU, but no more than the daemon streams
	// at once with its default flags.
	lanes := min(e.nproc, daemonMaxSweeps)
	hc := newClient(lanes)
	laneIDs := make([]int, lanes)
	for i := range laneIDs {
		laneIDs[i] = e.rec.lane(fmt.Sprintf("client %d", i))
	}
	rng := serving.DeriveRNG(e.seed, "warm-sweep")
	offsets := make([]int, lanes)
	for i := range offsets {
		offsets[i] = int(rng.Uint64() % uint64(len(sweepRotation)))
	}
	type streamed struct {
		id        string
		storeHits int64
	}
	got := make([][]streamed, lanes)
	t0 := time.Now()
	perLane := closedLoop(e.seconds, 0, lanes, func(seq, lane int) outcome {
		id := sweepRotation[(offsets[lane]+seq)%len(sweepRotation)]
		hits, code, err := streamSweep(hc, ws.d.base, id, refs[id], e.rec, int64(lane)<<32|int64(seq), laneIDs[lane])
		got[lane] = append(got[lane], streamed{id, hits})
		switch {
		case err == nil:
			return outcomeOK
		case classify(code) == outcomeShed:
			// Admission control refused the stream: it counts in
			// fail_frac and the result's failed, not as a wrong answer.
			return outcomeShed
		default:
			e.checkf(false, "warm-sweep: %v", err)
			return outcomeFailed
		}
	})
	elapsed := time.Since(t0)
	after, err := ws.d.statsz()
	if err != nil {
		return nil, err
	}
	rss, err := ws.d.stop()
	ws.d = nil
	if err != nil {
		return nil, err
	}
	delta := deltaOf(before, after)
	e.checkf(delta.Execs == 0 && delta.SweepExecs == 0, "warm-sweep: daemon simulated %d cells; want 0", delta.Execs+delta.SweepExecs)

	var fig9, all []opRecord
	var hitsOf []float64 // store hits per stream, parallel to all
	var storeHits, memHits int64
	counts := map[string]accounting{}
	for lane, ops := range perLane {
		for i, o := range ops {
			s := got[lane][i]
			c := counts[s.id]
			c.add(account([]opRecord{o}))
			counts[s.id] = c
			storeHits += s.storeHits
			all, hitsOf = append(all, o), append(hitsOf, float64(s.storeHits))
			if o.Outcome == outcomeOK {
				memHits += refs[s.id].Stats.MemHits
			}
			// A refused stream has no stream latency; it counts in
			// fail_frac instead.
			if s.id == "fig9" && o.Outcome == outcomeOK {
				fig9 = append(fig9, o)
			}
		}
	}
	for id, c := range counts {
		out.Phases[id] = c
		out.Acct.add(c)
	}
	lat := latenciesMS(fig9)
	p50, tail := percentile(lat, 50), tailPercentile(len(lat))
	cellsPerS := windowedRate(all, hitsOf, e.seconds, rateWindows)
	logf("%d streams in %.2f s on %d clients, %.1f store-served cells/s overall; sweep_p99_ms is the p%g of %d completed fig9 streams",
		out.Acct.Sent, elapsed.Seconds(), lanes, float64(storeHits)/elapsed.Seconds(), tail, len(fig9))
	out.Named.set("warm_cells_per_s", "1/s", cellsPerS)
	out.Named.set("sweep_p50_ms", "ms", p50)
	out.Named.set("sweep_p99_ms", "ms", percentile(lat, tail))
	out.E2E.set("op_p50_ms", "ms", p50)
	out.E2E.set("cells_per_s", "1/s", cellsPerS)
	out.E2E.set("peak_rss_mb", "MB", rss)

	if e.rec == nil {
		return out, nil
	}
	pm := out.PerLayer
	daemonCounters(delta, pm)
	pm.set("experiments.store_hits", "count", float64(storeHits))
	pm.set("experiments.mem_hits", "count", float64(memHits))
	loadgenCounters(out.Acct, nil, pm)
	if err := measureServing(e, ws, refs["cluster"].Events, pm); err != nil {
		return nil, err
	}
	// The server's job path (submit, poll, journal), in process over the
	// catalog, so its per-layer metrics are measured on a gated workload.
	if _, _, err := measureHandler(e, ws, len(ws.cells)*(microRounds+1), pm); err != nil {
		return nil, err
	}
	var renders []time.Duration
	lane := e.rec.lane("in-process render")
	for i := 0; i < microRounds*4; i++ {
		st, err := store.Open(ws.dir)
		if err != nil {
			return nil, err
		}
		opts := ws.opts
		opts.Store = st
		r := experiments.NewRunner(opts)
		sp := e.rec.begin("experiments.Runner.Fig9", int64(i), -1, lane)
		t := time.Now()
		_, err = r.Fig9()
		renders = append(renders, time.Since(t))
		e.rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	pm.set("server.stream_overhead_ms", "ms", p50-median(durationsMS(renders)))
	if err := measureRunner(e, ws, pm); err != nil {
		return nil, err
	}
	if err := measureStore(e, recordsOf(ws.truth), pm); err != nil {
		return nil, err
	}
	return out, nil
}

// The cluster sweep's fixed shape (internal/experiments/cluster.go): the
// benchmark rebuilds its 18 DES cells from the public API to time
// serving.Run alone, and checks the event counts against the stream's.
const (
	clusterChips          = 4
	clusterQueueCap       = 128
	clusterMaxBatch       = 32
	clusterSLOServiceMult = 10
	clusterTargetArrivals = 2000
)

var (
	clusterBatches = []int{1, 8, 16, 32}
	clusterLoads   = []float64{0.5, 0.8, 1.1}
)

// measureServing times serving.Run on the cluster sweep's cells, built
// from latency tables a fresh runner reads from the warm store.
func measureServing(e *env, ws *warmState, wantEvents int64, pm metrics) error {
	st, err := store.Open(ws.dir)
	if err != nil {
		return err
	}
	opts := ws.opts
	opts.Store = st
	r := experiments.NewRunner(opts)
	base, dup, err := r.ServingLatencies(workload.AllLayers(), clusterBatches, opts.Config().ClockMHz)
	if err != nil {
		return err
	}
	var classes []string
	var meanPerReq float64
	slo := map[string]int64{}
	for _, c := range base.Classes() {
		s8, err := base.ServiceNanos(c, 8)
		if err != nil {
			return err
		}
		classes = append(classes, c)
		slo[c] = clusterSLOServiceMult * s8
		meanPerReq += float64(s8) / 8 / 1e9
	}
	capacity := float64(clusterChips) / (meanPerReq / float64(len(classes)))
	seed := e.seed
	if seed == 0 {
		seed = 1
	}
	lane := e.rec.lane("serving")
	var runs []time.Duration
	var events int64
	for round := 0; round < microRounds; round++ {
		var total time.Duration
		events = 0
		for _, policy := range serving.Policies() {
			for _, load := range clusterLoads {
				for _, table := range []*serving.LatencyTable{base, dup} {
					rate := load * capacity
					cfg := serving.Config{
						Chips: clusterChips, Policy: policy, MaxBatch: clusterMaxBatch, QueueCap: clusterQueueCap,
						HorizonNanos: int64(clusterTargetArrivals / rate * 1e9), Seed: seed, Table: table,
					}
					for _, c := range classes {
						cfg.Classes = append(cfg.Classes, serving.Class{
							Name: c, Arrival: serving.Exponential{Rate: rate / float64(len(classes))}, SLONanos: slo[c],
						})
					}
					sp := e.rec.begin("serving.Run", int64(round), -1, lane)
					t := time.Now()
					m, err := serving.Run(cfg)
					total += time.Since(t)
					e.rec.end(sp)
					if err != nil {
						return err
					}
					events += m.Events
				}
			}
		}
		runs = append(runs, total)
	}
	e.checkf(events == wantEvents, "serving: rebuilt cluster cells processed %d events, the cluster sweep %d", events, wantEvents)
	runMS := median(durationsMS(runs))
	pm.set("serving.run_ms", "ms", runMS)
	pm.set("serving.events", "count", float64(events))
	pm.set("serving.mevents_per_s", "Mevents/s", float64(events)/runMS/1e3)
	return nil
}
