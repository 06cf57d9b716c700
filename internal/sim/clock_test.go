package sim

import (
	"testing"

	duplo "duplo/internal/core"
	"duplo/internal/workload"
)

// clockModes returns the same configuration with the event-driven (default)
// and dense clocks.
func clockModes(cfg Config) (event, dense Config) {
	event = cfg
	event.denseClock = false
	dense = cfg
	dense.denseClock = true
	return event, dense
}

// diffRun simulates k under both clock modes and requires byte-identical
// results: every Stats field (including the arithmetically accounted stall
// counters) and the CTA counts. Kernel and Config are inputs, not outputs,
// so they are excluded (Config necessarily differs in denseClock).
func diffRun(t *testing.T, name string, cfg Config, k *Kernel) {
	t.Helper()
	eventCfg, denseCfg := clockModes(cfg)
	ev, err := Run(eventCfg, k)
	if err != nil {
		t.Fatalf("%s event-driven: %v", name, err)
	}
	de, err := Run(denseCfg, k)
	if err != nil {
		t.Fatalf("%s dense: %v", name, err)
	}
	if ev.Stats != de.Stats {
		t.Errorf("%s: clock modes diverged\nevent: %+v\ndense: %+v", name, ev.Stats, de.Stats)
	}
	if ev.SimulatedCTAs != de.SimulatedCTAs || ev.TotalCTAs != de.TotalCTAs {
		t.Errorf("%s: CTA counts diverged: %d/%d vs %d/%d",
			name, ev.SimulatedCTAs, ev.TotalCTAs, de.SimulatedCTAs, de.TotalCTAs)
	}
}

// TestClockModesByteIdenticalSmall is the always-on differential gate on
// the unit-test layer, baseline and Duplo.
func TestClockModesByteIdenticalSmall(t *testing.T) {
	k, err := NewConvKernel("clock-small", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	diffRun(t, "baseline", cfg, k)
	cfg.Duplo = true
	cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()
	diffRun(t, "duplo", cfg, k)
}

// TestClockModesByteIdentical runs the dense-vs-event-driven differential
// over the Fig. 9 quick workloads (the determinism subset of the
// experiment engine: a duplication-rich stride-1 layer, a strided layer,
// and a GAN transposed layer), Duplo off and on (1024-entry LHB and the
// oracle) — the contract PR 1's byte-identical-tables promise rests on.
func TestClockModesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	layers := [][2]string{{"ResNet", "C2"}, {"ResNet", "C3"}, {"GAN", "TC4"}}
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"duplo1024", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Entries: 1024, Ways: 1}
		}},
		{"oracle", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Oracle: true}
		}},
	}
	for _, id := range layers {
		l, err := workload.Find(id[0], id[1])
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewConvKernel(l.FullName(), l.GemmParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			// Quick scale, like experiments.QuickOptions.
			cfg := TitanVConfig()
			cfg.MaxCTAs = 12
			cfg.SimSMs = 2
			m.set(&cfg)
			diffRun(t, l.FullName()+"/"+m.name, cfg, k)
		}
	}
}

// TestEventClockSkips asserts the event-driven loop actually takes the
// skip path on a memory-bound configuration — guarding against the
// optimization silently degenerating to dense ticking. Simulated cycles
// must vastly exceed executed ticks; we can only observe the former, so
// the proxy is that stall cycles dominate total scheduler-cycles, which is
// exactly the regime where skipping pays.
func TestEventClockSkips(t *testing.T) {
	k, err := NewConvKernel("skip", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.L1KB = 8
	cfg.L2KB = 64
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	schedCycles := res.Cycles * int64(cfg.SimSMs) * int64(cfg.Schedulers)
	if res.IssueStallCycles*2 < schedCycles {
		t.Fatalf("expected a stall-dominated run (stalls %d of %d scheduler-cycles)",
			res.IssueStallCycles, schedCycles)
	}
}

// TestNextWakeNeverInPast: a fully-stalled SM's nextWake must always be in
// the future (> now), whatever stale state it holds — the infinite-loop /
// clock-reversal guard of the event-driven dispatcher.
func TestNextWakeNeverInPast(t *testing.T) {
	cfg := testConfig()
	var stats Stats
	mem := newMemSystem(cfg, &stats)
	k, err := NewConvKernel("wake", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	sm := newSM(cfg, 0, mem, &gpuState{cfg: cfg})
	sm.placeCTA(k, 0, 1)

	const now = int64(100)
	check := func(name string) {
		t.Helper()
		if w := sm.nextWake(now); w <= now {
			t.Fatalf("%s: nextWake(%d) = %d, in the past", name, now, w)
		}
	}

	// Fresh warps: loads are register-ready with an empty LDST queue — the
	// "inconsistent" branch must clamp to now+1, not report no event.
	check("fresh CTA")

	// Registers busy far in the past (stale scoreboard).
	for s := range sm.warps {
		w := &sm.warps[s]
		if !w.active {
			continue
		}
		for i := range w.regReady {
			w.regReady[i] = now - 50
		}
	}
	check("stale regReady")

	// Stale queue, ROB, LHB-release and L1-port events, all before now.
	sm.ldstBusy = append(sm.ldstBusy, now-10)
	check("stale ldstBusy")
	for s := range sm.warps {
		w := &sm.warps[s]
		if w.active {
			w.robPush(robEntry{complete: now - 30})
			break
		}
	}
	check("stale ROB head")
	sm.lhbRelease = append(sm.lhbRelease, lhbReleaseEvt{at: now - 1})
	check("stale lhbRelease")
	sm.l1Port = now - 5
	check("stale l1Port")

	// Sanity: genuine future events are still honored (min, not clamp).
	sm2 := newSM(cfg, 1, mem, &gpuState{cfg: cfg})
	sm2.placeCTA(k, 0, 1)
	for s := range sm2.warps {
		w := &sm2.warps[s]
		if !w.active {
			continue
		}
		for i := range w.regReady {
			w.regReady[i] = now + 400
		}
	}
	if w := sm2.nextWake(now); w != now+400 {
		t.Fatalf("future regReady: nextWake = %d, want %d", w, now+400)
	}
	if w := sm2.nextWake(now + 1000); w != now+1001 {
		t.Fatalf("all-stale state: nextWake = %d, want clamp to %d", w, now+1001)
	}
}
