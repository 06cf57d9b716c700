package experiments

import (
	"fmt"

	"duplo/internal/energy"
	"duplo/internal/report"
	"duplo/internal/workload"
)

// EnergyArea reproduces §V-H: on-chip energy reduction and LHB area
// overhead relative to the register file (paper: -34.1% energy, +0.77%
// area). The energy model integrates detailed per-event counters, so this
// table is ground-truth-only at every predictor mode (the exact tier;
// DESIGN.md §9).
func (r *Runner) EnergyArea() (*report.Table, error) {
	m := energy.Default12nm()
	t := report.NewTable("Section V-H: Energy and area",
		"Layer", "Base on-chip (uJ)", "Duplo on-chip (uJ)", "Saving", "DRAM saving")
	g := r.layerGrid("energy", nil, func(l workload.Layer, _ int) (cell, error) {
		base, err := r.runLayer(l, r.opts.config(), exact)
		if err != nil {
			return cell{}, err
		}
		dup, err := r.runLayer(l, r.duploConfig(DefaultLHB), exact)
		if err != nil {
			return cell{}, err
		}
		be, de := energy.Energy(m, base), energy.Energy(m, dup)
		var ds float64
		if be.DRAMNJ > 0 {
			ds = 1 - de.DRAMNJ/be.DRAMNJ
		}
		return vals(be.OnChipNJ/1e3, de.OnChipNJ/1e3, energy.OnChipSaving(m, base, dup), ds), nil
	})
	uJ := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	g.render(t, "Mean", []column{
		col(0, 0, uJ, nil), col(0, 1, uJ, nil), col(0, 2, report.Pct, mean), col(0, 3, report.Pct, mean)})
	perEntry, totalBits := energy.LHBBits(1024)
	t.AddRowCells([]string{"", "", "", "", ""})
	t.AddRowCells([]string{fmt.Sprintf("LHB: %d bits/entry, %d KB total", perEntry, totalBits/8/1024), "",
		fmt.Sprintf("area overhead vs 256KB RF: %s", report.PctU(energy.AreaOverhead(m, 1024))), "", ""})
	return t, g.err
}
