package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"duplo/internal/experiments"
	"duplo/internal/sim"
	"duplo/internal/store"
)

// reference.json holds the digest of the cold sweep's simulated
// statistics at coldScale, recorded with the benchmark. A simulator change
// that alters any cell's cycles, LHB hits or DRAM lines fails the run.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	CTAs, SMs int
	Digest    string
}

// coldSetups is how many warm-up sweeps make up the cold workload's set-up.
const coldSetups = 3

// coldOpts are the options duploexp -exp fig9 -store DIR builds its Runner
// with at scale sc, with one worker per CPU.
func coldOpts(e *env, sc scale, st *store.Store) experiments.Options {
	return experiments.Options{MaxCTAs: sc.CTAs, SimSMs: sc.SMs, Workers: e.nproc, Store: st}
}

// coldRun is one Fig. 9 sweep on an empty store.
type coldRun struct {
	dir    string
	wall   time.Duration
	res    []sim.Result // per cell, from the Runner
	spans  []int        // per cell, the Runner call's span (-1 untraced)
	table  string
	cs     experiments.CacheStats
	counts store.Counters
}

// coldSweep runs the Fig. 9 grid through a Runner over an empty store at
// dir: nproc workers ask the Runner for every unique cell through its
// public Fig. 9 entry points (each an execution and a store write), then
// Runner.Fig9 renders the table from the memo. Spans around each call go
// to rec and are no-ops when it is nil, so both modes run the same code.
func coldSweep(e *env, rec *recorder, dir string, sc scale, cells []cell, lanes []int) (*coldRun, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	r := experiments.NewRunner(coldOpts(e, sc, st))
	run := &coldRun{dir: dir, res: make([]sim.Result, len(cells)), spans: make([]int, len(cells))}
	t0 := time.Now()
	errs := pool(e.nproc, len(cells), func(w, i int) error {
		name := "experiments.Runner.Baseline"
		if cells[i].Duplo {
			name = "experiments.Runner.Duplo"
		}
		run.spans[i] = rec.begin(name, int64(i), -1, lanes[w])
		res, err := cells[i].Run(r)
		rec.end(run.spans[i])
		run.res[i] = res
		return err
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	sp := rec.begin("experiments.Runner.Fig9", 0, -1, lanes[0])
	tbl, err := r.Fig9()
	rec.end(sp)
	run.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	run.table = tbl.String()
	run.cs, run.counts = r.CacheStats(), st.Counters()
	return run, nil
}

// coldSetup runs the warm-up sweeps at warmScale into throwaway stores:
// page cache, CPU clocks and the heap are warm before the first timed
// sweep. Returns the median warm-up time. They record no spans.
func coldSetup(e *env, cells []cell, lanes []int) (float64, error) {
	var times []float64
	for i := 0; i < coldSetups; i++ {
		t0 := time.Now()
		if _, err := coldSweep(e, nil, filepath.Join(e.runDir, fmt.Sprintf("warmup%d", i)), warmScale, cells, lanes); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	if ref.CTAs != coldScale.CTAs || ref.SMs != coldScale.SMs {
		return ref, fmt.Errorf("reference.json was recorded at ctas=%d sms=%d, the cold sweep runs at ctas=%d sms=%d",
			ref.CTAs, ref.SMs, coldScale.CTAs, coldScale.SMs)
	}
	return ref, nil
}

func runColdSweep(e *env) (*outcomeOf, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	out := &outcomeOf{E2E: metrics{}, Named: metrics{}, PerLayer: metrics{}, Phases: map[string]accounting{}, Extra: map[string]interface{}{}}
	cells := fig9Cells()
	lanes := make([]int, e.nproc)
	for i := range lanes {
		lanes[i] = e.rec.lane(fmt.Sprintf("worker %d", i))
	}
	setupS, err := coldSetup(e, cells, lanes)
	if err != nil {
		return nil, err
	}
	out.E2E.set("setup_s", "s", setupS)

	var runs []*coldRun
	var walls, rss []float64
	t0 := time.Now()
	for i := 0; ; i++ {
		resetPeakRSS()
		run, err := coldSweep(e, e.rec, filepath.Join(e.runDir, fmt.Sprintf("cold%d", i)), coldScale, cells, lanes)
		if err != nil {
			return nil, err
		}
		peak := peakRSSMBSinceReset()
		runs, walls, rss = append(runs, run), append(walls, run.wall.Seconds()), append(rss, peak)
		out.Acct.add(verifyColdRun(e, run, cells, ref))
		logf("cold fig9 sweep %d: %.3f s, peak RSS %.1f MB", i, run.wall.Seconds(), peak)
		// At least two sweeps, so one disturbed sweep is not the figure;
		// more while another fits in the measurement time.
		if i >= 1 && time.Since(t0)+run.wall > e.seconds {
			break
		}
	}
	out.Phases["cold-sweep"] = out.Acct
	sweepS := median(walls)
	logf("cold sweeps: %d at ctas=%d sms=%d workers=%d", len(walls), coldScale.CTAs, coldScale.SMs, e.nproc)
	out.Named.set("cold_sweep_s", "s", sweepS)
	out.E2E.set("op_p50_ms", "ms", sweepS*1000)
	out.E2E.set("cells_per_s", "1/s", float64(len(cells))/sweepS)
	out.E2E.set("peak_rss_mb", "MB", median(rss))
	if e.rec == nil {
		return out, nil
	}
	return out, coldLayers(e, out, cells, runs)
}

// verifyColdRun checks one cold sweep: every cell was simulated and
// written once, the statistics digest matches the reference, the table
// has no ERR cell, and a fresh Runner over the store the sweep wrote
// serves every cell from it, equal to the sweep's results, and renders a
// byte-equal table.
func verifyColdRun(e *env, run *coldRun, cells []cell, ref reference) accounting {
	n := len(cells)
	a := accounting{Sent: n}
	e.checkf(run.cs.Execs == int64(n) && run.cs.StoreHits == 0 && run.counts.Puts == int64(n),
		"cold: want %d executions and store writes on an empty store, got %+v, %d writes", n, run.cs, run.counts.Puts)
	if d := statsDigest(cells, run.res); d != ref.Digest {
		e.checkf(false, "cold: statistics digest %s != reference %s", d, ref.Digest)
		a.Failed = n
		return a
	}
	st, err := store.Open(run.dir)
	if err != nil {
		e.checkf(false, "cold: reopen store: %v", err)
		a.Failed = n
		return a
	}
	r := experiments.NewRunner(coldOpts(e, coldScale, st))
	for i, c := range cells {
		res, err := c.Run(r)
		if err != nil || !sameResult(runResultOf(res), run.res[i]) {
			e.checkf(false, "cold: %s read back from the store differs from the sweep's result (%v)", c.Name(), err)
			a.Failed++
		}
	}
	cs := r.CacheStats()
	e.checkf(cs.Execs == 0 && cs.StoreHits == int64(n),
		"cold: store written by the sweep should serve all %d cells; got %+v", n, cs)
	if tbl, err := r.Fig9(); err != nil {
		e.checkf(false, "cold: re-render: %v", err)
	} else {
		e.checkf(tbl.String() == run.table, "cold: sweep table differs from the render of its own store")
	}
	errCells := strings.Count(run.table, "ERR")
	e.checkf(errCells == 0, "cold: Fig. 9 table has %d ERR cells", errCells)
	a.Failed += errCells
	a.OK = a.Sent - a.Failed
	return a
}

// coldCell is one row of the traced run's per-DNN-layer cost table.
type coldCell struct {
	Cell      string  `json:"cell"`
	Tier      string  `json:"tier"`
	WallMS    float64 `json:"wall_ms"` // the Runner call (median over sweeps), store lookup and put included
	SimMS     float64 `json:"sim_ms"`  // sim.RunPooledContext alone
	Cycles    int64   `json:"cycles"`
	MCyclesPS float64 `json:"mcycles_per_s"`
}

// coldLayers fills the traced cold run's per-layer metrics: the Runner
// sweeps' spans and counters, then a pass of every cell straight through
// sim.RunPooledContext (the sim layer alone, one arena per worker as the
// Runner pools them), then the store and Runner micro-measurements.
func coldLayers(e *env, out *outcomeOf, cells []cell, runs []*coldRun) error {
	pm := out.PerLayer
	rec := e.rec
	lanes := make([]int, e.nproc)
	for i := range lanes {
		lanes[i] = rec.lane(fmt.Sprintf("sim worker %d", i))
	}
	direct := make([]sim.Result, len(cells))
	simSpans := make([]int, len(cells))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ars := make([]*sim.Arena, e.nproc)
	for w := range ars {
		ars[w] = sim.NewArena()
	}
	errs := pool(e.nproc, len(cells), func(w, i int) error {
		simSpans[i] = rec.begin("sim.RunPooledContext", int64(i), -1, lanes[w])
		res, err := cells[i].directRun(context.Background(), coldOpts(e, coldScale, nil), ars[w])
		rec.end(simSpans[i])
		direct[i] = res
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err := firstErr(errs); err != nil {
		return err
	}
	last := runs[len(runs)-1]
	for i := range cells {
		e.checkf(sameResult(runResultOf(last.res[i]), direct[i]),
			"cold traced: runner result for %s differs from a direct simulation", cells[i].Name())
	}

	spans := rec.snapshot()
	n := len(cells)
	var busy, slowest time.Duration
	var cycles int64
	var idle []float64
	cellWalls := make([][]float64, n)
	for _, run := range runs {
		var inCells time.Duration
		for i, sp := range run.spans {
			inCells += spans[sp].Dur()
			cellWalls[i] = append(cellWalls[i], float64(spans[sp].Dur())/1e6)
		}
		idle = append(idle, float64(e.nproc)*run.wall.Seconds()-inCells.Seconds())
	}
	// Every cell was requested once on an empty store, so each was an
	// execution (verifyColdRun checks it) and its tier is "sim".
	table := make([]coldCell, n)
	for i := range cells {
		sd := spans[simSpans[i]].Dur()
		busy += sd
		slowest = max(slowest, sd)
		cycles += direct[i].Cycles
		table[i] = coldCell{
			Cell: cells[i].Name(), Tier: "sim", WallMS: median(cellWalls[i]), SimMS: float64(sd) / 1e6,
			Cycles: direct[i].Cycles, MCyclesPS: float64(direct[i].Cycles) / sd.Seconds() / 1e6,
		}
	}
	pm.set("sim.busy_s", "s", busy.Seconds())
	pm.set("sim.mcycles_per_s", "Mcycles/s", float64(cycles)/busy.Seconds()/1e6)
	pm.set("sim.slowest_cell_s", "s", slowest.Seconds())
	pm.set("sim.runs", "count", float64(last.cs.Execs))
	pm.set("sim.allocs_per_run", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
	pm.set("experiments.idle_slot_s", "s", median(idle))
	pm.set("experiments.execs", "count", float64(last.cs.Execs))
	pm.set("experiments.mem_hits", "count", float64(last.cs.MemHits))
	pm.set("experiments.store_hits", "count", float64(last.cs.StoreHits))
	pm.set("store.hits", "count", float64(last.counts.Hits))
	pm.set("store.written", "count", float64(last.counts.Puts))
	pm.set("store.corrupt", "count", float64(last.counts.Corruptions))
	pm.set("store.put_errors", "count", float64(last.counts.PutErrors))
	if err := measureStore(e, recordsOf(direct), pm); err != nil {
		return err
	}
	ws := &warmState{dir: last.dir, opts: coldOpts(e, coldScale, nil), cells: cells, truth: direct}
	if err := measureRunner(e, ws, pm); err != nil {
		return err
	}
	loadgenCounters(out.Acct, nil, pm)

	out.Extra["cells"] = table
	reportCellCosts(e, table, busy)
	return nil
}

// reportCellCosts prints the per-cell cost table, slowest first, and names
// the cells that account for half of the simulator's busy time.
func reportCellCosts(e *env, table []coldCell, busy time.Duration) {
	sorted := append([]coldCell(nil), table...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SimMS > sorted[j].SimMS })
	logf("per-cell cost (slowest first): cell | tier | wall ms | sim ms | cycles | Mcycles/s")
	var acc float64
	var half []string
	for _, c := range sorted {
		logf("  %-28s %-4s %9.2f %9.2f %10d %8.2f", c.Cell, c.Tier, c.WallMS, c.SimMS, c.Cycles, c.MCyclesPS)
		if acc < busy.Seconds()*1000/2 {
			half = append(half, c.Cell)
		}
		acc += c.SimMS
	}
	logf("%d of %d cells account for half of sim.busy_s: %s", len(half), len(table), strings.Join(half, ", "))
	path := filepath.Join(e.resultsDir, fmt.Sprintf("cold-sweep-seed%d.cells.json", e.seed))
	if err := os.WriteFile(path, []byte(mustJSON(sorted)+"\n"), 0o644); err != nil {
		logf("per-cell table not written: %v", err)
	}
}

// pool runs n tasks on workers goroutines, task i on whichever worker is
// free, and returns one error slot per task.
func pool(workers, n int, task func(w, i int) error) []error {
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = task(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resetPeakRSS returns freed heap to the OS and restarts the process's
// peak resident set (VmHWM) from the current one, so the next reading
// covers only the work in between.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("peak RSS not reset (%v): the reading covers the whole process", err)
	}
}

// peakRSSMBSinceReset reads the process's peak resident set (VmHWM).
func peakRSSMBSinceReset() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
