package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	duplo "duplo/internal/core"
	"duplo/internal/predictor"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// Runner memoizes simulator runs so experiments sharing configurations
// (Fig. 9 and Fig. 10, for instance) pay for each simulation once, and
// executes independent simulations on a bounded worker pool.
//
// The cache is singleflight: when several goroutines request the same
// (kernel, config) key concurrently, exactly one simulates and the rest
// wait for its result. The pool bound applies to executing simulations
// only — waiters hold no slot — so nested fan-outs (Fig. 14 launching
// per-network sweeps that launch per-GEMM runs) cannot deadlock.
type Runner struct {
	opts    Options
	workers int
	sem     chan struct{}   // bounds concurrently executing simulations
	sink    *report.Sink    // nil unless Verbose
	ctx     context.Context // cancels in-flight and future simulations

	// simFn executes one simulation (sim.RunPooledContext). It is a seam
	// the robustness tests override to inject deterministic per-cell
	// failures, and the pool tests to build fresh state for every run.
	simFn func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error)

	// arenas pools per-run simulator state across the sweep's cells
	// (sim.Arena): an executing simulation takes one arena, runs with it,
	// and returns it, so at most Workers arenas exist and each is reused by
	// whichever cell executes next. Arenas self-invalidate on failed runs,
	// making the recycle unconditional.
	arenas *sync.Pool

	// store is the optional on-disk second cache tier (Options.Store): a
	// memoization miss consults it before simulating, and successful runs
	// are persisted through it. nil = memory-only, the pre-store behavior.
	store *store.Store

	mu    sync.Mutex
	cache map[string]*cacheEntry

	// Calibrated analytical predictor state (predict.go): the installed
	// calibration (nil until first use), a remembered fit failure so a
	// broken calibration degrades to ground truth once instead of
	// re-fitting per cell, and the lock serializing first-use fitting.
	calMu  sync.Mutex
	cal    *predictor.Calibration
	calErr error

	execs     atomic.Int64 // simulations actually executed (all tiers missed)
	memHits   atomic.Int64 // runs served from the in-memory singleflight cache
	storeHits atomic.Int64 // runs served from the disk tier
	predicted atomic.Int64 // runs synthesized by the analytical predictor
}

// cacheEntry is one singleflight slot: done closes when res/err are final.
type cacheEntry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// NewRunner builds a runner with opts.Workers pool slots (default
// runtime.GOMAXPROCS(0)).
func NewRunner(opts Options) *Runner {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var sink *report.Sink
	if opts.Verbose {
		if opts.Progress != nil {
			sink = report.NewSink(opts.Progress)
		} else {
			sink = report.NewWriterSink(os.Stdout)
		}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Runner{
		opts:    opts,
		workers: w,
		sem:     make(chan struct{}, w),
		sink:    sink,
		ctx:     ctx,
		simFn:   sim.RunPooledContext,
		arenas:  &sync.Pool{New: func() interface{} { return sim.NewArena() }},
		store:   opts.Store,
		cache:   make(map[string]*cacheEntry),
	}
	if opts.Faults != nil {
		r.simFn = faultWrap(opts.Faults, r.simFn)
	}
	return r
}

// faultWrap layers a SimFaultInjector over the simulate function: injected
// delays stall before the run (losing to cancellation with the usual typed
// error), injected faults surface as contained sim.PhasePanic errors — the
// exact failure shape a real in-loop panic produces, so the whole typed
// error path (problem documents, failed-run eviction, crash accounting) is
// exercised without ever crashing a server goroutine. Nil Faults never
// reaches here; the production simFn is untouched.
func faultWrap(f SimFaultInjector, next func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error)) func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
	return func(ctx context.Context, cfg sim.Config, k *sim.Kernel, ar *sim.Arena) (sim.Result, error) {
		if d := f.SimDelay(k.Name); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				phase := sim.PhaseCancelled
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					phase = sim.PhaseDeadline
				}
				return sim.Result{}, &sim.SimError{Phase: phase, Reason: "cancelled during injected delay", Err: ctx.Err()}
			case <-t.C:
			}
		}
		if ferr := f.SimFault(k.Name); ferr != nil {
			return sim.Result{}, &sim.SimError{
				Phase:  sim.PhasePanic,
				Reason: fmt.Sprintf("injected simulation fault: %v", ferr),
				Err:    ferr,
			}
		}
		return next(ctx, cfg, k, ar)
	}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Execs returns how many simulations actually ran (misses in both cache
// tiers); memory hits, disk-store hits and coalesced concurrent requests
// do not count.
func (r *Runner) Execs() int64 { return r.execs.Load() }

// StoreHits returns how many runs were served from the disk tier instead
// of simulating (0 when no store is configured).
func (r *Runner) StoreHits() int64 { return r.storeHits.Load() }

// Predicted returns how many runs were synthesized by the calibrated
// analytical predictor instead of simulating (0 unless Options.Predictor
// enables it). Memoized re-reads of a predicted cell are not counted.
func (r *Runner) Predicted() int64 { return r.predicted.Load() }

// CacheStats is a point-in-time snapshot of the runner's tiered caching
// activity, surfaced by `duploexp -v` and duploserved's /statsz.
type CacheStats struct {
	Workers   int   `json:"workers"`
	Execs     int64 `json:"execs"`
	MemHits   int64 `json:"mem_hits"`
	StoreHits int64 `json:"store_hits"`
	Predicted int64 `json:"predicted"`
}

// CacheStats snapshots the tier counters. Like store.Counters, the
// snapshot is not atomic across fields but each field is exact.
func (r *Runner) CacheStats() CacheStats {
	return CacheStats{
		Workers:   r.workers,
		Execs:     r.execs.Load(),
		MemHits:   r.memHits.Load(),
		StoreHits: r.storeHits.Load(),
		Predicted: r.predicted.Load(),
	}
}

// Store returns the disk tier, nil when the runner is memory-only.
func (r *Runner) Store() *store.Store { return r.store }

// progress emits one formatted progress line through the concurrency-safe
// sink (no-op unless Options.Verbose).
func (r *Runner) progress(format string, args ...interface{}) {
	if r.sink != nil {
		r.sink.Println(fmt.Sprintf(format, args...))
	}
}

// key builds a cache key for a kernel/config combination. The run budgets
// (MaxCycles, WallTimeout) are left out: they decide whether a run
// finishes, never what a finished run computes, and only finished runs
// stay cached.
func (r *Runner) key(kernelName string, cfg sim.Config) string {
	d := cfg.DetectCfg
	return fmt.Sprintf("%s|d=%v|e=%d,w=%d,o=%v,ne=%v,mi=%v|lat=%d|cta=%d|sm=%d|rl=%d|l1=%d|l2=%d",
		kernelName, cfg.Duplo, d.LHB.Entries, d.LHB.Ways, d.LHB.Oracle, d.LHB.NeverEvict, d.LHB.ModuloIndex,
		d.LatencyCycles, cfg.MaxCTAs, cfg.SimSMs, cfg.RetireDelay, cfg.L1KB, cfg.L2KB)
}

// once is the singleflight slot every cached tier shares: the first caller
// for key runs fn, concurrent callers wait for its outcome (a memo hit
// each). Only successes stay cached — a failed entry is evicted before
// its waiters wake, so a later request retries instead of being served a
// poisoned key for the process lifetime.
func (r *Runner) once(key string, fn func() (sim.Result, error)) (sim.Result, error) {
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		r.memHits.Add(1)
		<-e.done
		return e.res, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	e.res, e.err = fn()
	if e.err != nil {
		// Guard on identity — a retry may have installed a fresh entry in
		// the window.
		r.mu.Lock()
		if r.cache[key] == e {
			delete(r.cache, key)
		}
		r.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// Run obtains kernel k's result under cfg, memoized and singleflighted:
// safe for concurrent use, and each unique key simulates at most once per
// attempt wave. Only successful runs stay memoized — a failed run's entry
// is evicted before it is published, so concurrent waiters get the error
// but a later request retries instead of being served a poisoned key for
// the process lifetime.
//
// When Options.Predictor enables the analytical fast path, Run may return
// a predicted (marked, never persisted) result instead of simulating —
// see run in predict.go for the exact decision.
func (r *Runner) Run(k *sim.Kernel, cfg sim.Config) (sim.Result, error) {
	return r.run(k, cfg, predictable)
}

// RunCtx is the exact-tier Run with an explicit context governing this
// request's execution: when this request ends up being the one that
// simulates, ctx (not the runner-wide context) cancels it. Coalesced
// waiters share the executing request's fate — a cancelled executor
// propagates its error to the waiters, and so does one that exceeded a
// tighter MaxCycles/WallTimeout than a waiter asked for (the budgets are
// not part of the key); the eviction semantics mean their retry
// re-simulates. duploserved uses this for per-job cancellation on a
// shared runner; a nil ctx selects the runner-wide context. RunCtx never
// predicts: single-run requests (POST /v1/runs, duplosim's default) are
// ground-truth API surface.
//
// A traced run (cfg.Tracer set) bypasses both cache tiers and always
// executes: its collector must observe an actual execution, and its
// result — byte-identical to an untraced twin's by the tracing contract —
// would be a redundant entry.
func (r *Runner) RunCtx(ctx context.Context, k *sim.Kernel, cfg sim.Config) (sim.Result, error) {
	if ctx == nil {
		ctx = r.ctx
	}
	if cfg.Tracer != nil {
		return r.execute(ctx, k, cfg)
	}
	key := r.key(k.Name, cfg)
	return r.once(key, func() (sim.Result, error) {
		// Disk tier. The lookup happens before a pool slot is taken — a
		// store hit never occupies simulation capacity.
		if r.store != nil {
			if rec, ok := r.store.Get(key); ok {
				r.storeHits.Add(1)
				return rec.Result(k, cfg), nil
			}
		}
		res, err := r.execute(ctx, k, cfg)
		// A failed run is never persisted, so the disk tier inherits the
		// eviction semantics: it can never be served from the store.
		if err == nil && r.store != nil {
			// Best-effort: a full disk must not fail the sweep. The error
			// is surfaced on the progress sink and in the store's
			// PutErrors counter (statsz).
			if perr := r.store.Put(key, store.RecordOf(res)); perr != nil {
				r.progress("store: persist %s: %v", k.Name, perr)
			}
		}
		return res, err
	})
}

// execute simulates k under cfg on a pool slot with a pooled arena.
func (r *Runner) execute(ctx context.Context, k *sim.Kernel, cfg sim.Config) (sim.Result, error) {
	r.sem <- struct{}{}
	r.execs.Add(1)
	ar := r.arenas.Get().(*sim.Arena)
	res, err := r.simFn(ctx, cfg, k, ar)
	// Unconditional recycle: a failed run leaves the arena marked dirty,
	// and the next run through it rebuilds instead of reusing.
	r.arenas.Put(ar)
	<-r.sem
	return res, err
}

// fanOutAll runs n independent tasks on the worker pool and returns one
// error slot per task. Every task runs — the serial path does not stop at
// the first failure — so a sweep degrades to per-cell errors instead of
// aborting the figure, and the outputs written so far stay valid for a
// partial table. A panicking task is contained into its own error slot;
// the remaining tasks still run. Tasks must write their outputs to
// disjoint, index-addressed slots so assembly order is the caller's loop
// order, not completion order.
func (r *Runner) fanOutAll(n int, f func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	call := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiments: task %d panicked: %v", i, p)
			}
		}()
		return f(i)
	}
	if r.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// fanOut is the all-or-nothing form: every task runs (and drains), and the
// lowest-index error is returned — deterministic regardless of completion
// order. Callers that can render partial results use fanOutAll directly.
func (r *Runner) fanOut(n int, f func(i int) error) error {
	for _, err := range r.fanOutAll(n, f) {
		if err != nil {
			return err
		}
	}
	return nil
}

// LayerKernel builds the forward tensor-core GEMM kernel for a layer.
func LayerKernel(l workload.Layer) (*sim.Kernel, error) {
	return sim.NewConvKernel(l.FullName(), l.GemmParams())
}

// duploConfig is the runner's base config with Duplo on at lhb.
func (r *Runner) duploConfig(lhb duplo.LHBConfig) sim.Config {
	cfg := r.opts.config()
	cfg.Duplo = true
	cfg.DetectCfg.LHB = lhb
	return cfg
}

// runLayer runs the layer's forward kernel under cfg at tier t.
func (r *Runner) runLayer(l workload.Layer, cfg sim.Config, t tier) (sim.Result, error) {
	k, err := LayerKernel(l)
	if err != nil {
		return sim.Result{}, err
	}
	return r.run(k, cfg, t)
}

// Baseline runs the layer without Duplo (predict-aware).
func (r *Runner) Baseline(l workload.Layer) (sim.Result, error) {
	return r.runLayer(l, r.opts.config(), predictable)
}

// Duplo runs the layer with the given LHB configuration (predict-aware).
func (r *Runner) Duplo(l workload.Layer, lhb duplo.LHBConfig) (sim.Result, error) {
	return r.runLayer(l, r.duploConfig(lhb), predictable)
}
