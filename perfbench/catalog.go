package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"

	duplo "duplo/internal/core"
	"duplo/internal/experiments"
	"duplo/internal/server"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// cell is one unique simulation of the Fig. 9 grid: a Table I layer,
// baseline or Duplo under one LHB point.
type cell struct {
	Layer workload.Layer
	Point string // "baseline" or an experiments.LHBPoints name
	Duplo bool
	LHB   duplo.LHBConfig
}

func (c cell) Name() string { return c.Layer.FullName() + " " + c.Point }

// Kernel and Config resolve the cell exactly as the Runner's Fig. 9 path
// does (Runner.Baseline / Runner.Duplo under opts).
func (c cell) Kernel() (*sim.Kernel, error) { return experiments.LayerKernel(c.Layer) }

func (c cell) Config(opts experiments.Options) sim.Config {
	cfg := opts.Config()
	if c.Duplo {
		cfg.Duplo = true
		cfg.DetectCfg.LHB = c.LHB
	}
	return cfg
}

// Request is the POST /v1/runs body that asks the daemon for this cell.
func (c cell) Request() server.RunRequest {
	rq := server.RunRequest{Network: c.Layer.Network, Layer: c.Layer.Name, Duplo: c.Duplo}
	if c.Duplo {
		if c.LHB.Oracle {
			rq.LHBOracle = true
		} else {
			rq.LHBEntries, rq.LHBWays = c.LHB.Entries, c.LHB.Ways
		}
	}
	return rq
}

// Run asks the runner for the cell through its public Fig. 9 entry points.
func (c cell) Run(r *experiments.Runner) (sim.Result, error) {
	if c.Duplo {
		return r.Duplo(c.Layer, c.LHB)
	}
	return r.Baseline(c.Layer)
}

// fig9Cells is the Fig. 9 grid's unique simulations: 22 layers x
// {baseline, four LHB sizes, oracle} = 132 cells, in layer-major order.
func fig9Cells() []cell {
	var out []cell
	for _, l := range workload.AllLayers() {
		out = append(out, cell{Layer: l, Point: "baseline"})
		for _, p := range experiments.LHBPoints {
			out = append(out, cell{Layer: l, Point: p.Name, Duplo: true, LHB: p.Cfg})
		}
	}
	return out
}

// groundTruth fetches every cell's result through r (memo or store hits
// once r has rendered Fig. 9).
func groundTruth(r *experiments.Runner, cells []cell) ([]sim.Result, error) {
	out := make([]sim.Result, len(cells))
	for i, c := range cells {
		res, err := c.Run(r)
		if err != nil {
			return nil, fmt.Errorf("ground truth %s: %w", c.Name(), err)
		}
		out[i] = res
	}
	return out, nil
}

// statsDigest hashes the simulated statistics that identify a cold
// sweep's outcome: per cell, in catalog order, its cycles, LHB hits and
// DRAM lines.
func statsDigest(cells []cell, res []sim.Result) string {
	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "%s|%d|%d|%d\n", c.Name(), res[i].Cycles, res[i].LHB.Hits, res[i].DRAMLines)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameResult compares a served result with ground truth on everything the
// store and the HTTP API carry.
func sameResult(got server.RunResult, want sim.Result) bool {
	return reflect.DeepEqual(got.Stats, want.Stats) &&
		got.SimulatedCTAs == want.SimulatedCTAs && got.TotalCTAs == want.TotalCTAs
}

// runResultOf projects a result onto what the store and the HTTP API carry.
func runResultOf(res sim.Result) server.RunResult {
	return server.RunResult{Stats: res.Stats, SimulatedCTAs: res.SimulatedCTAs, TotalCTAs: res.TotalCTAs}
}

// directRun simulates the cell straight through the simulator's pooled
// entry point, bypassing every runner tier.
func (c cell) directRun(ctx context.Context, opts experiments.Options, ar *sim.Arena) (sim.Result, error) {
	k, err := c.Kernel()
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunPooledContext(ctx, c.Config(opts), k, ar)
}
