package experiments

import (
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// cell is one finished task of a sweep grid: the values its table columns
// read, and the predicted error of the runs behind them (predErrOf
// convention: -1 when every run is ground truth).
type cell struct {
	v    []float64
	pred float64
}

// vals builds a ground-truth cell; from marks it with its runs' predicted
// error.
func vals(v ...float64) cell { return cell{v: v, pred: -1} }

func (c cell) from(runs ...sim.Result) cell {
	c.pred = predErrOf(runs...)
	return c
}

// grid is the shape every layer-indexed simulated table shares (Figs.
// 9-13, the ablations, the energy table): Table I layers x design points,
// one independent task per (layer, column) cell. Failure identity is per
// cell, not per schedule, so a partial table is byte-identical at every
// worker count.
type grid struct {
	layers []workload.Layer
	cols   int
	cells  []cell  // layer-major: the cell of (li, ci) is cells[li*cols+ci]
	errs   []error // same indexing; nil = the cell finished
	err    error   // the *SweepError naming the failed cells, nil when none
}

// layerGrid fans one task per (layer, column) cell out on the worker pool.
// cols names the columns for the progress lines ("<exp> <layer> <col>
// done") and the failure labels ("<layer>/<col>"); nil cols runs one task
// per layer ("<exp> <layer> done", "<layer>").
func (r *Runner) layerGrid(exp string, cols []string, f func(l workload.Layer, ci int) (cell, error)) *grid {
	layers := r.opts.layers()
	n := max(len(cols), 1)
	g := &grid{layers: layers, cols: n, cells: make([]cell, len(layers)*n)}
	name := func(i int, sep string) string {
		if cols == nil {
			return layers[i].FullName()
		}
		return layers[i/n].FullName() + sep + cols[i%n]
	}
	g.errs = r.fanOutAll(len(g.cells), func(i int) error {
		c, err := f(layers[i/n], i%n)
		if err != nil {
			return err
		}
		g.cells[i] = c
		r.progress("%s %s done", exp, name(i, " "))
		return nil
	})
	g.err = sweepError(exp, g.errs, func(i int) string { return name(i, "/") })
	return g
}

// rowCells as a column's cell makes it depend on every cell of its row:
// any failed cell renders it ERR.
const rowCells = -1

// column renders one table column from a grid row. The zero column is a
// blank one; a column with no value renders text.
type column struct {
	cell   int                      // the grid column it depends on, or rowCells
	value  func(row []cell) float64 // nil: a text column
	format func(float64) string
	agg    func([]float64) float64 // footer aggregate; nil leaves the footer blank
	text   string
}

// col renders value vi of grid column ci.
func col(ci, vi int, format func(float64) string, agg func([]float64) float64) column {
	return column{cell: ci, value: func(row []cell) float64 { return row[ci].v[vi] }, format: format, agg: agg}
}

// perCol renders value 0 of every grid column, one table column each.
func perCol(n int, format func(float64) string, agg func([]float64) float64) []column {
	cols := make([]column, n)
	for ci := range cols {
		cols[ci] = col(ci, 0, format, agg)
	}
	return cols
}

// state reports whether layer li's cells behind c failed, and the worst
// predicted error among them.
func (g *grid) state(li int, c column) (failed bool, pred float64) {
	lo, hi := li*g.cols+c.cell, li*g.cols+c.cell+1
	if c.cell == rowCells {
		lo, hi = li*g.cols, (li+1)*g.cols
	}
	pred = -1
	for i := lo; i < hi; i++ {
		if g.errs[i] != nil {
			return true, -1
		}
		pred = max(pred, g.cells[i].pred)
	}
	return false, pred
}

// render writes the table body — for every layer one table row per row
// template, the layer name heading the first — and the footer row named
// foot, whose cells aggregate each column that has an aggregate. The grid
// owns the degradation rules: a failed cell renders errCell, a footer
// over a failed cell is errCell too (a silently partial gmean would
// masquerade as the paper's headline number), predicted cells and the
// footers over them carry the "~" mark, and the table gets the
// predicted-legend note when any cell is predicted.
func (g *grid) render(t *report.Table, foot string, rows ...[]column) {
	for li, l := range g.layers {
		for ri, tmpl := range rows {
			out := []string{""}
			if ri == 0 {
				out[0] = l.FullName()
			}
			row := g.cells[li*g.cols : (li+1)*g.cols]
			for _, c := range tmpl {
				failed, pred := g.state(li, c)
				switch {
				case c.value == nil:
					out = append(out, c.text)
				case failed:
					out = append(out, errCell)
				default:
					out = append(out, markPred(c.format(c.value(row)), pred))
				}
			}
			t.AddRowCells(out)
		}
	}
	footer := make([]string, len(rows[0]))
	for _, tmpl := range rows {
		for j, c := range tmpl {
			if c.agg != nil {
				footer[j] = g.footer(c)
			}
		}
	}
	t.AddRowCells(append([]string{foot}, footer...))

	var preds []float64
	for i, c := range g.cells {
		if g.errs[i] == nil {
			preds = append(preds, c.pred)
		}
	}
	predNote(t, preds)
}

// footer aggregates column c over every layer: errCell when any cell
// behind it failed, marked when any is predicted.
func (g *grid) footer(c column) string {
	var v []float64
	anyPred := false
	for li := range g.layers {
		failed, pred := g.state(li, c)
		if failed {
			return errCell
		}
		anyPred = anyPred || pred >= 0
		v = append(v, c.value(g.cells[li*g.cols:(li+1)*g.cols]))
	}
	s := c.format(c.agg(v))
	if anyPred {
		s += predictedMark
	}
	return s
}
