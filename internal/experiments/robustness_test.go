package experiments

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"duplo/internal/predictor"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/trace"
)

// errInjected is the sentinel the robustness tests inject through the
// Runner's simFn seam.
var errInjected = errors.New("injected cell failure")

// TestRunnerEvictsFailedRuns pins the failure side of the singleflight
// cache: a failed run's entry is evicted before waiters wake (they get the
// error, not a hang), a later request retries instead of being served the
// poisoned key, and successful entries still memoize.
func TestRunnerEvictsFailedRuns(t *testing.T) {
	opts := QuickOptions()
	opts.MaxCTAs = 4
	opts.SimSMs = 1
	opts.Workers = 4
	r := NewRunner(opts)
	var calls atomic.Int64
	r.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		if calls.Add(1) == 1 {
			return sim.Result{}, errInjected
		}
		return sim.Result{Stats: sim.Stats{Cycles: 1234}}, nil
	}
	k, err := sim.NewConvKernel("evict-a", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()

	// First attempt fails and must not stay memoized.
	if _, err := r.Run(k, cfg); !errors.Is(err, errInjected) {
		t.Fatalf("first run: got %v, want the injected failure", err)
	}
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Fatalf("failed run stayed cached (%d entries)", cached)
	}

	// The retry re-executes and succeeds; a third request is a cache hit.
	res, err := r.Run(k, cfg)
	if err != nil || res.Cycles != 1234 {
		t.Fatalf("retry: res=%+v err=%v", res.Stats, err)
	}
	again, err := r.Run(k, cfg)
	if err != nil || again != res {
		t.Fatalf("cached request: res changed (%v) or errored (%v)", again != res, err)
	}
	if got := r.Execs(); got != 2 {
		t.Fatalf("executed %d simulations, want 2 (fail + retry, then a hit)", got)
	}

	// Concurrent waiters coalesced onto a failing flight all receive the
	// error. The flight blocks until released, so the waiters are real.
	var failing atomic.Bool
	failing.Store(true)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		if failing.Load() {
			once.Do(func() { close(started) })
			<-release
			return sim.Result{}, errInjected
		}
		return sim.Result{Stats: sim.Stats{Cycles: 5678}}, nil
	}
	k2, err := sim.NewConvKernel("evict-b", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(k2, cfg)
		}(i)
	}
	<-started // the flight is in simFn: its entry is installed and open
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errInjected) {
			t.Errorf("waiter %d: got %v, want the injected failure", i, err)
		}
	}
	r.mu.Lock()
	cached = len(r.cache)
	r.mu.Unlock()
	if cached != 1 { // only the evict-a success remains
		t.Fatalf("cache holds %d entries after the failing flights, want 1", cached)
	}
	failing.Store(false)
	if res, err := r.Run(k2, cfg); err != nil || res.Cycles != 5678 {
		t.Fatalf("post-failure retry: res=%+v err=%v", res.Stats, err)
	}
}

// TestFanOutDrainAndFirstError pins the degradation contract of the
// fan-out primitives at both pool widths: every task runs even when some
// fail or panic (no early exit leaving outputs half-written), errors land
// in their own index slots, and fanOut reports the lowest-index error
// regardless of completion order.
func TestFanOutDrainAndFirstError(t *testing.T) {
	const n = 23
	task := func(ran *atomic.Int64) func(int) error {
		return func(i int) error {
			ran.Add(1)
			if i == 7 {
				panic("task 7 exploded")
			}
			if i%5 == 0 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		}
	}
	for _, workers := range []int{1, 8} {
		r := NewRunner(Options{Workers: workers})
		var ran atomic.Int64
		errs := r.fanOutAll(n, task(&ran))
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: drained %d/%d tasks", workers, got, n)
		}
		for i, err := range errs {
			switch {
			case i == 7:
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Errorf("workers=%d task %d: panic not contained: %v", workers, i, err)
				}
			case i%5 == 0:
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("task %d failed", i)) {
					t.Errorf("workers=%d task %d: got %v", workers, i, err)
				}
			default:
				if err != nil {
					t.Errorf("workers=%d task %d: unexpected error %v", workers, i, err)
				}
			}
		}
		ran.Store(0)
		err := r.fanOut(n, task(&ran))
		if err == nil || !strings.Contains(err.Error(), "task 0 failed") {
			t.Errorf("workers=%d: fanOut returned %v, want the lowest-index error", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Errorf("workers=%d: fanOut drained %d/%d tasks", workers, got, n)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the sweep table golden files")

// synthResult is a deterministic stand-in for a simulation: every counter
// a table reads is derived from a hash of the kernel name and the config
// axes the sweeps vary, so each cell of each table gets its own value
// without simulating anything.
func synthResult(cfg sim.Config, k *sim.Kernel) sim.Result {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%+v|%d|%d|%d", k.Name, cfg.Duplo, cfg.DetectCfg.LHB,
		cfg.DetectCfg.LatencyCycles, cfg.L1KB, cfg.L2KB)
	v := h.Sum64()
	bits := func(shift, mod uint64) int64 { return int64((v >> shift) % mod) }
	var s sim.Stats
	s.Cycles = 100000 + bits(0, 90000)
	s.TensorLoads = 5000 + bits(8, 3000)
	s.MMAs = 4000 + bits(12, 1000)
	s.Stores = 500 + bits(16, 100)
	s.L1Accesses = 8000 + bits(20, 4000)
	s.L1Hits = s.L1Accesses * bits(24, 60) / 100
	s.L2Accesses = 3000 + bits(28, 2000)
	s.L2Hits = s.L2Accesses * bits(32, 70) / 100
	s.DRAMLines = 2000 + bits(36, 1000)
	s.StoreLines = 100 + bits(40, 50)
	s.ServiceLines[sim.ServiceL1] = 1 + bits(44, 1000)
	s.ServiceLines[sim.ServiceL2] = 1 + bits(48, 1000)
	s.ServiceLines[sim.ServiceDRAM] = 1 + bits(52, 1000)
	if cfg.Duplo {
		s.LoadsEliminated = s.TensorLoads * bits(56, 80) / 100
		s.LHB.Lookups = uint64(s.TensorLoads)
		s.LHB.Hits = uint64(s.LoadsEliminated)
		s.ServiceLines[sim.ServiceLHB] = 1 + bits(60, 1000)
	}
	return sim.Result{Stats: s, SimulatedCTAs: 12, TotalCTAs: 12 + int(bits(4, 100))}
}

// TestPartialTableDeterministic renders every simulated sweep (except
// calibrate, whose fit needs real ground truth) from synthetic results fed
// through the simFn seam — no real simulations run — healthy and with one
// layer's kernels failing, at Workers=1 and Workers=4, and compares the
// table text and the *SweepError message against testdata goldens. The
// failing layer's plain baseline and oracle-LHB runs still succeed, so the
// partial tables mix ERR rows, per-column poisoned footers and healthy
// columns. Failure identity is per task, not per schedule: both worker
// counts must match the same golden. Regenerate with -update.
func TestPartialTableDeterministic(t *testing.T) {
	layers := detLayers(t)
	failLayer := layers[1].FullName()
	mk := func(workers int, failing bool) *Runner {
		opts := QuickOptions()
		opts.Layers = layers
		opts.Workers = workers
		r := NewRunner(opts)
		base := opts.config()
		r.simFn = func(_ context.Context, cfg sim.Config, k *sim.Kernel, _ *sim.Arena) (sim.Result, error) {
			family := k.Name == failLayer || strings.HasPrefix(k.Name, failLayer+"@") ||
				strings.HasPrefix(k.Name, failLayer+"/")
			plainBase := k.Name == failLayer && cfg == base
			if failing && family && !plainBase && !cfg.DetectCfg.LHB.Oracle {
				return sim.Result{}, errInjected
			}
			return synthResult(cfg, k), nil
		}
		return r
	}
	for _, s := range mk(1, false).Sweeps() {
		if !s.Sim || s.ID == "calibrate" {
			continue
		}
		for _, failing := range []bool{false, true} {
			name := s.ID
			if failing {
				name += ".partial"
			}
			t.Run(name, func(t *testing.T) {
				var golden string
				for _, workers := range []int{1, 4} {
					sw, _ := mk(workers, failing).Sweep(s.ID)
					tbl, err := sw.Run()
					if tbl == nil {
						t.Fatalf("workers=%d: sweep must still render a table", workers)
					}
					got := tbl.String() + "--- error ---\n" + fmt.Sprint(err) + "\n"
					if failing {
						var se *SweepError
						if !errors.As(err, &se) || !errors.Is(err, errInjected) {
							t.Errorf("workers=%d: got %T (%v), want a *SweepError unwrapping to the injected failure", workers, err, err)
						}
					} else if err != nil {
						t.Errorf("workers=%d: healthy sweep failed: %v", workers, err)
					}
					if workers == 1 {
						golden = checkSweepGolden(t, name+".golden", got)
					} else if got != golden {
						t.Errorf("workers=%d output differs from workers=1:\n%s\nwant:\n%s", workers, got, golden)
					}
				}
			})
		}
	}
}

// checkSweepGolden compares got with testdata/name (rewriting it under
// -update) and returns the golden text.
func checkSweepGolden(t *testing.T, name, got string) string {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
	return string(want)
}

// TestSigintCancelsSweep wires a Runner to a signal.NotifyContext (the CLI
// wiring), delivers a real SIGINT to the test process, and requires the
// sweep to degrade: a partial all-ERR table plus a *SweepError that
// unwraps to context.Canceled — the duploexp exit path.
func TestSigintCancelsSweep(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := QuickOptions()
	opts.Layers = detLayers(t)[:1]
	opts.Workers = 4
	opts.Context = ctx
	r := NewRunner(opts)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	tbl, err := r.Fig9()
	if tbl == nil {
		t.Fatal("cancelled sweep must still render a partial table")
	}
	if !strings.Contains(tbl.String(), errCell) {
		t.Errorf("cancelled sweep rendered no %q cells:\n%s", errCell, tbl)
	}
	var sw *SweepError
	if !errors.As(err, &sw) {
		t.Fatalf("got %T (%v), want *SweepError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("SweepError does not unwrap to context.Canceled: %v", err)
	}
	// Every attempt fail-fasted: nothing may be left memoized for a retry
	// after the signal (Execs itself is schedule-dependent here — failed
	// entries evict, so coalescing varies).
	r.mu.Lock()
	cached := len(r.cache)
	r.mu.Unlock()
	if cached != 0 {
		t.Errorf("cancelled sweep left %d cache entries", cached)
	}
}

// TestTracedTwinExecutes pins that a traced run always executes: after an
// untraced twin memoized (and stored, or predicted) the same cell, a
// traced Run must not be served from any cache tier or the predictor —
// its collector has to observe the execution, so the collector's totals
// equal the returned result.
func TestTracedTwinExecutes(t *testing.T) {
	k, err := LayerKernel(detLayers(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, r *Runner, cfg sim.Config, wantExecs int64) {
		t.Helper()
		col := trace.NewCollector(cfg.TraceMeta(1000))
		traced := cfg
		traced.Tracer = col
		res, err := r.Run(k, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Predicted {
			t.Error("traced run was predicted")
		}
		col.Finish(res.Cycles)
		tot := col.Totals()
		if tot.Instructions == 0 || tot.Instructions != res.Instructions || tot.MMAs != res.MMAs ||
			tot.LoadsEliminated != res.LoadsEliminated {
			t.Errorf("collector totals (instructions %d, MMAs %d, eliminated %d) do not match the result (%d, %d, %d)",
				tot.Instructions, tot.MMAs, tot.LoadsEliminated, res.Instructions, res.MMAs, res.LoadsEliminated)
		}
		if got := r.Execs(); got != wantExecs {
			t.Errorf("executed %d simulations, want %d", got, wantExecs)
		}
	}

	t.Run("store", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{MaxCTAs: 2, SimSMs: 1, Store: st}
		r := NewRunner(opts)
		cfg := opts.Config()
		cfg.Duplo = true
		cfg.DetectCfg.LHB = DefaultLHB
		if _, err := r.Run(k, cfg); err != nil {
			t.Fatal(err)
		}
		// The untraced run and its traced twin.
		check(t, r, cfg, 2)
	})

	t.Run("predict-all", func(t *testing.T) {
		opts := Options{MaxCTAs: 2, SimSMs: 1, Predictor: PredictAll}
		r := NewRunner(opts)
		// A gate-passing model for the kernel's family stands in for a
		// fit: this case pins the tier decision, not the model's accuracy.
		weights := make([][]float64, len(predictor.TargetNames))
		for i := range weights {
			weights[i] = make([]float64, len(predictor.FeatureNames))
		}
		fam := predictor.Family(k)
		r.cal = &predictor.Calibration{Families: map[string]*predictor.FamilyModel{
			fam: {Family: fam, Weights: weights, GatePass: true},
		}}
		cfg := opts.Config()
		cfg.Duplo = true
		cfg.DetectCfg.LHB = DefaultLHB
		res, err := r.Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Predicted || r.Predicted() != 1 {
			t.Fatalf("untraced twin not predicted (Predicted %v, count %d); test is vacuous", res.Predicted, r.Predicted())
		}
		// Only the traced twin simulates.
		check(t, r, cfg, 1)
	})
}
