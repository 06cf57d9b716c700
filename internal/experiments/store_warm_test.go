package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/trace"
)

// TestStoreWarmStartDeterminism is the acceptance gate for the disk tier:
// the same sweep run twice against one store directory (two Store
// instances — two processes, as `duploexp -store DIR` twice) produces
// byte-identical tables, and the second run executes zero cycle
// simulations — every cell is a store hit.
func TestStoreWarmStartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	layers := detLayers(t)[:2]

	render := func() (string, *Runner) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := QuickOptions()
		opts.Layers = layers
		opts.Workers = 4
		opts.Store = st
		r := NewRunner(opts)
		var b strings.Builder
		for _, id := range []string{"fig9", "fig11"} {
			sw, ok := r.Sweep(id)
			if !ok {
				t.Fatalf("no sweep %q", id)
			}
			tbl, err := sw.Run()
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			tbl.Render(&b)
		}
		return b.String(), r
	}

	cold, coldRunner := render()
	if coldRunner.Execs() == 0 {
		t.Fatal("cold run executed nothing")
	}
	coldStore := coldRunner.Store().Counters()
	if coldStore.Puts != coldRunner.Execs() {
		t.Fatalf("cold run persisted %d of %d executions", coldStore.Puts, coldRunner.Execs())
	}

	warm, warmRunner := render()
	if warm != cold {
		t.Errorf("warm tables differ from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if n := warmRunner.Execs(); n != 0 {
		t.Errorf("warm run executed %d simulations, want 0", n)
	}
	warmStore := warmRunner.Store().Counters()
	if warmStore.Hits != warmRunner.StoreHits() || warmStore.Misses != 0 {
		t.Errorf("warm store counters %+v (runner store hits %d), want all hits",
			warmStore, warmRunner.StoreHits())
	}
	// 100%% store hits: every unique cell of the cold run was served warm.
	if warmRunner.StoreHits() != coldRunner.Execs() {
		t.Errorf("warm store hits %d != cold executions %d",
			warmRunner.StoreHits(), coldRunner.Execs())
	}
}

// TestRunBudgetsShareKey pins that the run budgets stay out of the cache
// key: a finished run's result does not depend on how much budget it had
// left, so runs that differ only in MaxCycles/WallTimeout share one memo
// entry and one store record.
func TestRunBudgetsShareKey(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Store = st
	k, err := sim.NewConvKernel("budgets", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	def := opts.config()
	tight := def
	tight.MaxCycles = 1 << 40
	tight.WallTimeout = time.Hour

	r := NewRunner(opts)
	want, err := r.Run(k, def)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.Run(k, tight); err != nil || res.Stats != want.Stats {
		t.Fatalf("budgeted run: err=%v, stats differ: %v", err, res.Stats != want.Stats)
	}
	if n := r.Execs(); n != 1 {
		t.Errorf("one runner: %d executions, want 1", n)
	}

	r2 := NewRunner(opts)
	if res, err := r2.Run(k, tight); err != nil || res.Stats != want.Stats {
		t.Fatalf("second runner: err=%v, stats differ: %v", err, res.Stats != want.Stats)
	}
	if r2.StoreHits() != 1 || r2.Execs() != 0 {
		t.Errorf("second runner: %d store hits, %d executions; want 1, 0", r2.StoreHits(), r2.Execs())
	}
}

// TestStoreTierSkipsFailedRuns pins the eviction contract on the disk
// tier: a failed simulation is never persisted, and the retry that
// succeeds is.
func TestStoreTierSkipsFailedRuns(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Store = st
	r := NewRunner(opts)
	calls := 0
	r.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		calls++
		if calls == 1 {
			return sim.Result{}, errors.New("injected failure")
		}
		return sim.Result{Stats: sim.Stats{Cycles: 77}}, nil
	}
	k, err := sim.NewConvKernel("store-evict", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()

	if _, err := r.Run(k, cfg); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if c := st.Counters(); c.Puts != 0 {
		t.Fatalf("failed run was persisted: %+v", c)
	}
	res, err := r.Run(k, cfg)
	if err != nil || res.Cycles != 77 {
		t.Fatalf("retry: res=%d err=%v", res.Cycles, err)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("successful retry not persisted: %+v", c)
	}

	// A fresh runner over the same store serves the retried result warm.
	r2 := NewRunner(opts)
	r2.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		t.Error("warm hit still simulated")
		return sim.Result{}, nil
	}
	res, err = r2.Run(k, cfg)
	if err != nil || res.Cycles != 77 {
		t.Fatalf("warm run: res=%d err=%v", res.Cycles, err)
	}
}

// TestStoreTierBypassedWhenTracing pins the tracing contract against the
// disk tier: a run with a collector attached neither reads nor writes the
// store — the collector must observe an actual execution.
func TestStoreTierBypassedWhenTracing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Store = st
	r := NewRunner(opts)
	r.simFn = func(context.Context, sim.Config, *sim.Kernel, *sim.Arena) (sim.Result, error) {
		return sim.Result{Stats: sim.Stats{Cycles: 11}}, nil
	}
	k, err := sim.NewConvKernel("store-traced", hammerLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()
	cfg.Tracer = trace.NewCollector(cfg.TraceMeta(0))

	if _, err := r.Run(k, cfg); err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Puts != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("traced run touched the store: %+v", c)
	}
}
