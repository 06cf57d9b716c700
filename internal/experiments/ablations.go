package experiments

import (
	"fmt"

	duplo "duplo/internal/core"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// The ablations below run at the exact tier only: they probe design axes
// (detection latency, operand placement, cache scaling, eviction policy,
// index hashing) the calibrated predictor never saw move, so their tables
// are documented as ground-truth-only at every predictor mode (DESIGN.md
// §9).

// AblationLatency reproduces the §IV-A sensitivity: a 3-cycle detection
// unit costs only ~0.9% versus the 2-cycle design.
func (r *Runner) AblationLatency() (*report.Table, error) {
	t := report.NewTable("Ablation: detection-unit latency (§IV-A)",
		"Layer", "2-cycle", "3-cycle", "Delta")
	g := r.layerGrid("latency", nil, func(l workload.Layer, _ int) (cell, error) {
		base, err := r.runLayer(l, r.opts.config(), exact)
		if err != nil {
			return cell{}, err
		}
		imp := func(lat int) (float64, error) {
			cfg := r.duploConfig(DefaultLHB)
			cfg.DetectCfg.LatencyCycles = lat
			res, err := r.runLayer(l, cfg, exact)
			if err != nil {
				return 0, err
			}
			return sim.Speedup(base, res), nil
		}
		i2, err := imp(2)
		if err != nil {
			return cell{}, err
		}
		i3, err := imp(3)
		if err != nil {
			return cell{}, err
		}
		return vals(i2, i3, i2-i3), nil
	})
	g.render(t, "Mean", []column{col(0, 0, report.Pct, nil), col(0, 1, report.Pct, nil), col(0, 2, report.Pct, mean)})
	return t, g.err
}

// AblationSharedMem reproduces the §II-C baseline study: which GEMM
// operands to stage in shared memory. C-only allows 3 concurrent CTAs and
// wins (the paper reports +29.7% over all-in-shared).
func (r *Runner) AblationSharedMem() (*report.Table, error) {
	t := report.NewTable("Ablation: shared-memory operand placement (§II-C)",
		"Layer", "A+B+C (1 CTA)", "A+C (2 CTAs)", "C-only (3 CTAs)", "C-only vs A+B+C")
	variants := []sim.SharedVariant{sim.SharedABC, sim.SharedAC, sim.SharedCOnly}
	cols := make([]string, len(variants))
	for i, v := range variants {
		cols[i] = v.String()
	}
	g := r.layerGrid("smem", cols, func(l workload.Layer, ci int) (cell, error) {
		k, err := LayerKernel(l)
		if err != nil {
			return cell{}, err
		}
		k.Variant = variants[ci]
		k.Name = fmt.Sprintf("%s@%s", l.FullName(), variants[ci])
		res, err := r.run(k, r.opts.config(), exact)
		if err != nil {
			return cell{}, err
		}
		return vals(float64(res.Cycles)), nil
	})
	// The gain column relates the first and last variant, so every column
	// depends on the whole row: any failed variant degrades the layer.
	cycles := func(ci int) column {
		return column{cell: rowCells, value: func(row []cell) float64 { return row[ci].v[0] }, format: cycleCount}
	}
	gain := column{cell: rowCells, value: func(row []cell) float64 { return row[0].v[0]/row[2].v[0] - 1 },
		format: report.Pct, agg: mean}
	g.render(t, "Mean", []column{cycles(0), cycles(1), cycles(2), gain})
	return t, g.err
}

// cycleCount renders a cycle count carried as a cell value.
func cycleCount(v float64) string { return fmt.Sprint(int64(v)) }

// AblationCacheScaling reproduces the §V-D claim: even 16x L1 and 4x L2
// buy only ~1.8% — bigger caches are not the answer.
func (r *Runner) AblationCacheScaling() (*report.Table, error) {
	t := report.NewTable("Ablation: cache scaling without Duplo (§V-D)",
		"Layer", "Baseline cyc", "16xL1+4xL2 cyc", "Gain")
	g := r.layerGrid("cache", nil, func(l workload.Layer, _ int) (cell, error) {
		base, err := r.runLayer(l, r.opts.config(), exact)
		if err != nil {
			return cell{}, err
		}
		cfg := r.opts.config()
		cfg.L1KB *= 16
		cfg.L2KB *= 4
		big, err := r.runLayer(l, cfg, exact)
		if err != nil {
			return cell{}, err
		}
		return vals(float64(base.Cycles), float64(big.Cycles), float64(base.Cycles)/float64(big.Cycles)-1), nil
	})
	g.render(t, "Mean", []column{col(0, 0, cycleCount, nil), col(0, 1, cycleCount, nil), col(0, 2, report.Pct, mean)})
	return t, g.err
}

// AblationEviction quantifies the §V-C analysis: the gap between the
// retire-based eviction (the implementable design), the oracle, and a
// never-evict buffer approaching the theoretical duplication limit.
func (r *Runner) AblationEviction() (*report.Table, error) {
	points := []struct {
		name string
		cfg  duplo.LHBConfig
	}{
		{"1024 direct", DefaultLHB},
		{"Oracle (retire-evict)", duplo.LHBConfig{Oracle: true}},
		{"Never-evict (limit)", duplo.LHBConfig{Oracle: true, NeverEvict: true}},
	}
	headers := []string{"Layer"}
	cols := make([]string, len(points))
	var columns []column
	for i, p := range points {
		headers = append(headers, p.name+" hit", p.name+" imp")
		cols[i] = p.name
		columns = append(columns, col(i, 0, report.PctU, mean), col(i, 1, report.Pct, gmeanImprovement))
	}
	t := report.NewTable("Ablation: LHB eviction policy (§V-C)", headers...)
	g := r.layerGrid("evict", cols, func(l workload.Layer, ci int) (cell, error) {
		base, err := r.runLayer(l, r.opts.config(), exact)
		if err != nil {
			return cell{}, err
		}
		dup, err := r.runLayer(l, r.duploConfig(points[ci].cfg), exact)
		if err != nil {
			return cell{}, err
		}
		return vals(dup.LHBHitRate(), sim.Speedup(base, dup)), nil
	})
	g.render(t, "Mean/Gmean", columns)
	return t, g.err
}

// AblationIndexing compares the default XOR-fold hashed LHB index with the
// plain modulo the Table II example implies (see internal/core): modulo
// collapses power-of-two ID strides onto a few sets.
func (r *Runner) AblationIndexing() (*report.Table, error) {
	t := report.NewTable("Ablation: LHB index hashing",
		"Layer", "Hashed hit", "Modulo hit", "Hashed imp", "Modulo imp")
	g := r.layerGrid("index", nil, func(l workload.Layer, _ int) (cell, error) {
		base, err := r.runLayer(l, r.opts.config(), exact)
		if err != nil {
			return cell{}, err
		}
		hash, err := r.runLayer(l, r.duploConfig(DefaultLHB), exact)
		if err != nil {
			return cell{}, err
		}
		mod, err := r.runLayer(l, r.duploConfig(duplo.LHBConfig{Entries: 1024, Ways: 1, ModuloIndex: true}), exact)
		if err != nil {
			return cell{}, err
		}
		return vals(hash.LHBHitRate(), mod.LHBHitRate(), sim.Speedup(base, hash), sim.Speedup(base, mod)), nil
	})
	g.render(t, "Gmean", []column{
		col(0, 0, report.PctU, nil), col(0, 1, report.PctU, nil),
		col(0, 2, report.Pct, gmeanImprovement), col(0, 3, report.Pct, gmeanImprovement)})
	return t, g.err
}
