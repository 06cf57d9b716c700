package experiments

import (
	"fmt"
	"strings"
)

// errCell is what a failed sweep cell renders as. Failure identity is
// per-task, not per-schedule, so a partial table is byte-identical at
// every worker count.
const errCell = "ERR"

// SweepError aggregates the per-cell failures of one experiment sweep.
// The experiment still returns its table — failed cells render "ERR" —
// so a single livelocked or cancelled configuration degrades one figure
// cell instead of aborting the whole invocation.
type SweepError struct {
	Exp   string   // experiment name, e.g. "fig9"
	Cells []string // human-readable labels of the failed cells, task order
	Errs  []error  // matching errors, same order
}

// maxSweepErrorCells bounds how many per-cell failures Error() spells out;
// the rest are summarized. Unwrap still exposes every error.
const maxSweepErrorCells = 6

// Error lists the failed cells deterministically (task order, not
// completion order) so the same failure renders the same message at every
// worker count. The experiment name is deliberately omitted — callers
// (duploexp's per-experiment loop) already prefix it; Exp carries it for
// programmatic use.
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of the sweep's cells failed", len(e.Cells))
	n := len(e.Cells)
	if n > maxSweepErrorCells {
		n = maxSweepErrorCells
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\n  %s: %v", e.Cells[i], e.Errs[i])
	}
	if len(e.Cells) > n {
		fmt.Fprintf(&b, "\n  ... and %d more", len(e.Cells)-n)
	}
	return b.String()
}

// Unwrap exposes every cell error, so errors.Is(err, context.Canceled)
// answers whether any cell was cancelled.
func (e *SweepError) Unwrap() []error { return e.Errs }

// sweepError folds a fanOutAll error slice into a *SweepError, labelling
// each failed slot with label(i). It returns nil when every slot is nil.
func sweepError(exp string, errs []error, label func(i int) string) error {
	se := &SweepError{Exp: exp}
	for i, err := range errs {
		if err != nil {
			se.Cells = append(se.Cells, label(i))
			se.Errs = append(se.Errs, err)
		}
	}
	if len(se.Errs) == 0 {
		return nil
	}
	return se
}
