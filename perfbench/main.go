// Command perfbench is the repository's benchmark. It drives the real
// duploserved daemon and the experiments/store/server/serving public Go
// API (the Runner path duploexp uses), from outside the program, on three
// workloads:
//
//	cold-sweep  the Fig. 9 grid on an empty store (the simulator's workload)
//	warm-serve  open-loop POST+poll jobs against a warm duploserved
//	warm-sweep  closed-loop NDJSON sweep streams against a warm duploserved
//
// BENCHMARK.json gates cold-sweep and warm-sweep. warm-serve's figures are
// dominated by duploserved's scan of every retained job on each request,
// which swings two- to threefold between runs on a shared host; it stays
// runnable to measure that cost.
//
// Run it through run.sh, which builds it and the daemon it drives:
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it records
// spans around every call into a layer and prints the per-layer metrics,
// writing the spans as Perfetto JSON under .bench_build/results/. The last
// line of standard output is always the JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// scale is the simulated size experiments run at (-ctas/-sms).
type scale struct{ CTAs, SMs int }

var (
	// coldScale keeps a cold Fig. 9 sweep at a few seconds on a 2-CPU host
	// so a run can repeat it.
	coldScale = scale{CTAs: 2, SMs: 1}
	// warmScale is the smallest scale: warm-path cost per cell does not
	// depend on the simulated scale, so set-up fills the store cheaply.
	warmScale = scale{CTAs: 1, SMs: 1}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// finite replaces every NaN or infinite value (a latency percentile that
// landed on a failed operation) with 0 so the result stays valid JSON, and
// reports whether there was none.
func (m metrics) finite() bool {
	ok := true
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			logf("CHECK FAILED: metric %s is not finite", name)
			m[name] = metric{Value: 0, Unit: v.Unit}
			ok = false
		}
	}
	return ok
}

// result is the benchmark's final line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env is one benchmark invocation.
type env struct {
	root, bin  string // checkout root; directory holding the built binaries
	runDir     string // scratch space for this run, removed at exit
	resultsDir string // per-run reports and span files, kept
	workload   string
	seed       int64
	seconds    time.Duration
	nproc      int
	limitMS    float64   // warm-serve p99 latency limit
	rec        *recorder // nil unless --trace 1

	mu       sync.Mutex
	problems []string // correctness failures
}

// checkf records a correctness failure; the run then reports correct=false.
func (e *env) checkf(ok bool, format string, args ...interface{}) {
	if !ok {
		e.mu.Lock()
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
		e.mu.Unlock()
	}
}

// logf prints a human-readable report line (the JSON result stays last).
func logf(format string, args ...interface{}) {
	fmt.Printf("# "+format+"\n", args...)
}

// outcomeOf is what a workload hands back to main.
type outcomeOf struct {
	E2E      metrics // end-to-end metrics, measured with or without spans
	Named    metrics // the workload's own end-to-end figures, reported beside E2E
	PerLayer metrics // per-layer metrics (traced runs only)
	Acct     accounting
	Phases   map[string]accounting
	Extra    map[string]interface{} // per-cell tables and other report detail
}

var workloads = map[string]func(*env) (*outcomeOf, error){
	"cold-sweep": runColdSweep,
	"warm-serve": runWarmServe,
	"warm-sweep": runWarmSweep,
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout to benchmark")
		bin      = flag.String("bin", ".bench_build", "directory holding perfbench and duploserved")
		workload = flag.String("workload", "", "cold-sweep | warm-serve | warm-sweep")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measurement time per run")
		traced   = flag.Int("trace", 0, "1 = record spans and print the per-layer metrics")
		limitMS  = flag.Float64("serve-p99-limit-ms", 50, "warm-serve p99 latency limit for serve_max_rps")
	)
	flag.Parse()
	if err := run(*root, *bin, *workload, *seed, *seconds, *traced == 1, *limitMS); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, bin, workload string, seed int64, seconds int, traced bool, limitMS float64) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cold-sweep, warm-serve or warm-sweep)", workload)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return err
	}
	e := &env{
		root: root, bin: bin, workload: workload, seed: seed,
		seconds: time.Duration(seconds) * time.Second, nproc: nproc(), limitMS: limitMS,
		resultsDir: filepath.Join(root, ".bench_build", "results"),
	}
	if traced {
		e.rec = newRecorder()
	}
	if err := os.MkdirAll(e.resultsDir, 0o755); err != nil {
		return err
	}
	e.runDir, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.runDir)

	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	stamp := hostStamp(root)
	logf("host %s", mustJSON(stamp))
	out, err := fn(e)
	if err != nil {
		return err
	}
	if out.Extra == nil {
		out.Extra = map[string]interface{}{}
	}

	// Every run reports the full metric set of BENCHMARK.json; a per-layer
	// metric of a layer the workload does not exercise reads 0.
	e.conform(out.E2E, spec.EndToEnd, false)
	if traced {
		e.conform(out.PerLayer, spec.PerLayer, true)
	}
	res := result{Correct: len(e.problems) == 0, Attempted: out.Acct.Sent, Failed: out.Acct.Failed + out.Acct.Shed}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		e.problems = append(e.problems, "no operation was attempted")
	}
	for _, p := range e.problems {
		logf("CHECK FAILED: %s", p)
	}
	for _, name := range sortedKeys(out.Phases) {
		a := out.Phases[name]
		logf("phase %-12s sent=%d ok=%d failed=%d shed=%d", name, a.Sent, a.OK, a.Failed, a.Shed)
	}
	label := "untraced"
	if traced {
		label = "traced"
	}
	out.Named.set("fail_frac", "ratio", out.Acct.FailFrac())
	for _, m := range []metrics{out.E2E, out.Named} {
		for _, name := range sortedKeys(m) {
			logf("%s %s = %.6g %s", label, name, m[name].Value, m[name].Unit)
		}
	}
	if traced {
		for _, name := range sortedKeys(out.PerLayer) {
			logf("layer %s = %.6g %s", name, out.PerLayer[name].Value, out.PerLayer[name].Unit)
		}
		spanPath := filepath.Join(e.resultsDir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
		if err := e.rec.writePerfetto(spanPath, "perfbench "+workload); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		spans := e.rec.snapshot()
		logf("spans: %d written to %s", len(spans), spanPath)
		out.Extra["span_self_time"] = reportSelfTimes(spans)
		reportOverhead(e, stamp, out.E2E, out.Named)
		res.Metrics = out.PerLayer
	} else {
		res.Metrics = out.E2E
	}
	for _, m := range []metrics{out.E2E, out.Named, out.PerLayer} {
		if !m.finite() {
			res.Correct = false
		}
	}

	report := map[string]interface{}{
		"host": stamp, "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"result": res, "end_to_end": out.E2E, "named": out.Named, "per_layer": out.PerLayer,
		"phases": out.Phases, "problems": e.problems, "detail": out.Extra,
	}
	reportPath := filepath.Join(e.resultsDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, seed, boolInt(traced), time.Now().UnixNano()))
	if err := os.WriteFile(reportPath, []byte(mustJSON(report)+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Println(mustJSON(res))
	return nil
}

// spanStat is one span name's totals over a traced run.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the time children cover
}

// reportSelfTimes prints, per span name, how many calls were made and
// their total and self time, largest self time first.
func reportSelfTimes(spans []span) []spanStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var stats []spanStat
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		j, ok := idx[s.Name]
		if !ok {
			j = len(stats)
			idx[s.Name] = j
			stats = append(stats, spanStat{Name: s.Name})
		}
		stats[j].Count++
		stats[j].TotalMS += float64(s.Dur()) / 1e6
		stats[j].SelfMS += float64(self[i]) / 1e6
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].SelfMS > stats[j].SelfMS })
	logf("span self time: name | calls | total ms | self ms")
	for _, st := range stats {
		logf("  %-36s %8d %12.3f %12.3f", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	return stats
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark checks its own
// output against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// conform checks that m reports exactly the declared metrics with their
// declared units. With zeroMissing, an undeclared gap is filled with 0
// (a layer the workload does not exercise) instead of being a failure.
func (e *env) conform(m metrics, declared []specMetric, zeroMissing bool) {
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
		got, ok := m[d.Name]
		switch {
		case !ok && zeroMissing:
			m.set(d.Name, d.Unit, 0)
		case !ok:
			e.checkf(false, "metric %s declared in BENCHMARK.json was not measured", d.Name)
		case got.Unit != d.Unit:
			e.checkf(false, "metric %s reported in %s, BENCHMARK.json declares %s", d.Name, got.Unit, d.Unit)
		}
	}
	for name := range m {
		_, ok := want[name]
		e.checkf(ok, "metric %s is not declared in BENCHMARK.json", name)
	}
}

// reportOverhead prints the traced run's end-to-end numbers beside the
// medians of the untraced runs already recorded in this checkout's results
// directory for the same workload and seed, built from the same sources.
func reportOverhead(e *env, st stamp, tracedMetrics ...metrics) {
	paths, _ := filepath.Glob(filepath.Join(e.resultsDir, fmt.Sprintf("%s-seed%d-trace0-*.json", e.workload, e.seed)))
	untraced := map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var rep struct {
			Host   stamp   `json:"host"`
			Seed   int64   `json:"seed"`
			Result result  `json:"result"`
			Named  metrics `json:"named"`
		}
		if json.Unmarshal(data, &rep) != nil || !rep.Result.Correct ||
			rep.Seed != e.seed || rep.Host.SourceSHA256 != st.SourceSHA256 {
			continue
		}
		for _, m := range []metrics{rep.Result.Metrics, rep.Named} {
			for name, v := range m {
				untraced[name] = append(untraced[name], v.Value)
			}
		}
	}
	if len(untraced) == 0 {
		logf("tracing overhead: no untraced %s run of seed %d from these sources recorded in this checkout yet", e.workload, e.seed)
		return
	}
	for _, traced := range tracedMetrics {
		for _, name := range sortedKeys(traced) {
			vs := untraced[name]
			if len(vs) == 0 {
				continue
			}
			u := median(vs)
			change := "n/a"
			if u != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(traced[name].Value/u-1))
			}
			logf("tracing overhead %s: untraced median %.6g (%d runs) vs traced %.6g %s (%s)",
				name, u, len(vs), traced[name].Value, traced[name].Unit, change)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every reported value is a plain struct of finite numbers
	}
	return string(b)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// oneLine shortens a multi-line message for a report line.
func oneLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}
