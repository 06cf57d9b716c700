package experiments

import (
	"fmt"

	duplo "duplo/internal/core"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// lhbColumns names the Fig. 9/10 LHB points, one grid column each.
func lhbColumns() []string {
	cols := make([]string, len(LHBPoints))
	for i, p := range LHBPoints {
		cols[i] = p.Name
	}
	return cols
}

// lhbTier is the tier of a Fig. 9/10 LHB point: the 1024-entry column is
// the paper's chosen design point — the headline ratio hybrid mode never
// predicts.
func lhbTier(lhb duplo.LHBConfig) tier {
	if lhb == DefaultLHB {
		return headline
	}
	return predictable
}

// Fig9 reproduces Figure 9: per-layer performance improvement of Duplo over
// the baseline for variable-sized LHBs (256 to 2048 entries plus the
// oracle), ending with the gmean row. The layer x size sweep fans out on
// the worker pool; rows are assembled in Table I order. On partial
// failure the table is still returned (failed cells render "ERR")
// alongside a *SweepError naming them.
func (r *Runner) Fig9() (*report.Table, error) {
	cols := lhbColumns()
	t := report.NewTable("Figure 9: Performance improvement vs LHB size", append([]string{"Layer"}, cols...)...)
	g := r.layerGrid("fig9", cols, func(l workload.Layer, ci int) (cell, error) {
		lhb := LHBPoints[ci].Cfg
		base, err := r.runLayer(l, r.opts.config(), lhbTier(lhb))
		if err != nil {
			return cell{}, err
		}
		dup, err := r.runLayer(l, r.duploConfig(lhb), lhbTier(lhb))
		if err != nil {
			return cell{}, err
		}
		return vals(sim.Speedup(base, dup)).from(base, dup), nil
	})
	g.render(t, "Gmean", perCol(len(cols), report.Pct, gmeanImprovement))
	return t, g.err
}

// Fig10 reproduces Figure 10: LHB hit rate per layer for the same sweep.
func (r *Runner) Fig10() (*report.Table, error) {
	cols := lhbColumns()
	t := report.NewTable("Figure 10: LHB hit rate vs size", append([]string{"Layer"}, cols...)...)
	g := r.layerGrid("fig10", cols, func(l workload.Layer, ci int) (cell, error) {
		lhb := LHBPoints[ci].Cfg
		dup, err := r.runLayer(l, r.duploConfig(lhb), lhbTier(lhb))
		if err != nil {
			return cell{}, err
		}
		return vals(dup.LHBHitRate()).from(dup), nil
	})
	g.render(t, "Mean", perCol(len(cols), report.PctU, mean))
	return t, g.err
}

// Fig11 reproduces Figure 11: the breakdown of which memory-hierarchy level
// services load data, baseline (B) vs Duplo with a 1024-entry LHB (D), plus
// the traffic deltas the paper quotes (§V-D: DRAM -26.6%, L1 -28.1%,
// L2 -19.2% on average).
func (r *Runner) Fig11() (*report.Table, error) {
	t := report.NewTable("Figure 11: Memory service breakdown (B=baseline, D=Duplo 1024)",
		"Layer", "Cfg", "LHB", "L1$", "L2$", "DRAM", "dDRAM", "dL1svc", "dL2svc")
	g := r.layerGrid("fig11", nil, func(l workload.Layer, _ int) (cell, error) {
		// Every cell here feeds the §V-D headline deltas, so the whole
		// figure is headline: hybrid mode always simulates it, predict-all
		// predicts (and marks) it.
		base, err := r.runLayer(l, r.opts.config(), headline)
		if err != nil {
			return cell{}, err
		}
		dup, err := r.runLayer(l, r.duploConfig(DefaultLHB), headline)
		if err != nil {
			return cell{}, err
		}
		bb, db := base.ServiceBreakdown(), dup.ServiceBreakdown()
		return vals(
			bb[sim.ServiceLHB], bb[sim.ServiceL1], bb[sim.ServiceL2], bb[sim.ServiceDRAM],
			db[sim.ServiceLHB], db[sim.ServiceL1], db[sim.ServiceL2], db[sim.ServiceDRAM],
			ratioDelta(dup.DRAMLines, base.DRAMLines),
			// "Data services" deltas, like §V-D (not tag probes — Duplo
			// still probes the L1 in parallel with the LHB).
			ratioDelta(dup.ServiceLines[sim.ServiceL1], base.ServiceLines[sim.ServiceL1]),
			ratioDelta(dup.ServiceLines[sim.ServiceL2], base.ServiceLines[sim.ServiceL2]),
		).from(base, dup), nil
	})
	share := func(vi int) column { return col(0, vi, report.PctU, nil) }
	delta := func(vi int) column { return col(0, vi, report.Pct, mean) }
	g.render(t, "Mean",
		[]column{{text: "B"}, share(0), share(1), share(2), share(3), {}, {}, {}},
		[]column{{text: "D"}, share(4), share(5), share(6), share(7), delta(8), delta(9), delta(10)})
	return t, g.err
}

func ratioDelta(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a)/float64(b) - 1
}

// Fig12 reproduces Figure 12: set-associative LHBs (1024 entries total) vs
// the direct-mapped default. The paper finds 8-way buys only ~3.6%.
func (r *Runner) Fig12() (*report.Table, error) {
	ways := []int{1, 2, 4, 8}
	cols := make([]string, len(ways))
	headers := []string{"Layer"}
	for i, w := range ways {
		cols[i] = fmt.Sprintf("%d-way", w)
		if w == 1 {
			headers = append(headers, "Direct")
		} else {
			headers = append(headers, cols[i])
		}
	}
	t := report.NewTable("Figure 12: Performance improvement vs LHB associativity (1024 entries)", headers...)
	g := r.layerGrid("fig12", cols, func(l workload.Layer, ci int) (cell, error) {
		// Direct-mapped is the recommended design (§V-E) — the headline
		// column. Associative cells are outside the calibrated envelope
		// anyway (the fit never saw Ways > 1), so they always simulate.
		tr := predictable
		if ways[ci] == 1 {
			tr = headline
		}
		base, err := r.runLayer(l, r.opts.config(), tr)
		if err != nil {
			return cell{}, err
		}
		dup, err := r.runLayer(l, r.duploConfig(duplo.LHBConfig{Entries: 1024, Ways: ways[ci]}), tr)
		if err != nil {
			return cell{}, err
		}
		return vals(sim.Speedup(base, dup)).from(base, dup), nil
	})
	g.render(t, "Gmean", perCol(len(ways), report.Pct, gmeanImprovement))
	return t, g.err
}

// Fig13 reproduces Figure 13: Duplo's improvement with batch sizes 8, 16
// and 32 (1024-entry LHB). Larger batches enlarge the workspace without
// adding cross-image duplication, so the fixed-size LHB covers a smaller
// fraction (§V-F).
func (r *Runner) Fig13() (*report.Table, error) {
	batches := []int{8, 16, 32}
	cols := make([]string, len(batches))
	headers := []string{"Layer"}
	for i, b := range batches {
		cols[i] = fmt.Sprintf("b%d", b)
		headers = append(headers, fmt.Sprintf("Batch %d", b))
	}
	t := report.NewTable("Figure 13: Performance improvement vs batch size (1024-entry LHB)", headers...)
	g := r.layerGrid("fig13", cols, func(l workload.Layer, ci int) (cell, error) {
		k, err := BatchKernel(l, batches[ci])
		if err != nil {
			return cell{}, err
		}
		base, err := r.run(k, r.opts.config(), predictable)
		if err != nil {
			return cell{}, err
		}
		dup, err := r.run(k, r.duploConfig(DefaultLHB), predictable)
		if err != nil {
			return cell{}, err
		}
		return vals(sim.Speedup(base, dup)).from(base, dup), nil
	})
	g.render(t, "Gmean", perCol(len(batches), report.Pct, gmeanImprovement))
	return t, g.err
}
