// Package cli is the command-line front end that duploexp, duplosim and
// duploserved share: the flags that size and bound the simulations, their
// resolution into experiments.Options, the signal/profiling/exit wrapper
// around each binary's run function, and the export-file writer.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"duplo/internal/experiments"
	"duplo/internal/store"
)

// ErrUsage marks a command-line mistake the flag package cannot catch
// (an unknown -exp, say). Main exits 2 for errors wrapping it, the flag
// package's usage exit code, and 1 for every other error.
var ErrUsage = errors.New("usage")

// Flags holds the values of the flags every binary shares.
type Flags struct {
	fs           *flag.FlagSet
	ctas         int
	sms          int
	workers      int
	maxCycles    int64
	crashDir     string
	storeDir     string
	predict      string
	predictBound float64
	calibration  string
	cpuprofile   string
	memprofile   string
}

// Bind declares the shared flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.IntVar(&f.ctas, "ctas", 96, "max CTAs simulated per kernel (0 = full grid)")
	fs.IntVar(&f.sms, "sms", 4, "number of SMs simulated (>= 1)")
	fs.IntVar(&f.workers, "workers", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.Int64Var(&f.maxCycles, "max-cycles", 0, "abort any simulation past this many cycles (0 = simulator default)")
	fs.StringVar(&f.crashDir, "crash-dir", "", "directory for watchdog/panic crash dumps (default: system temp dir)")
	fs.StringVar(&f.storeDir, "store", "", "directory of the on-disk result store (warm-starts identical runs; created if missing)")
	fs.StringVar(&f.predict, "predict", "off", "calibrated analytical fast path: off | predict-all | hybrid (predicted results are marked '~'; see DESIGN.md §9)")
	fs.Float64Var(&f.predictBound, "predict-bound", 0.15, "hybrid mode's uncertainty bound: predict only when the family's calibrated MAPE is below this (0 = never predict)")
	fs.StringVar(&f.calibration, "calibration", "", "calibration artifact path (default: <store>/calibration/<key>.json when -store is set, else in-memory only)")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// Options fills base's shared fields (scale, pool, budget, crash dir,
// predictor, calibration, context and store) from the flags, validates
// the result, and opens -store when it is set. base carries the
// binary-specific fields; they are validated along with the shared ones.
func (f *Flags) Options(ctx context.Context, base experiments.Options) (experiments.Options, error) {
	mode, err := experiments.ParsePredictorMode(f.predict)
	if err != nil {
		return experiments.Options{}, err
	}
	// Options.config falls back to its default for SimSMs <= 0, which
	// would silently simulate a different scale than the one asked for.
	if f.sms < 1 {
		return experiments.Options{}, fmt.Errorf("-sms %d out of range (want >= 1)", f.sms)
	}
	o := base
	o.MaxCTAs, o.SimSMs, o.Workers = f.ctas, f.sms, f.workers
	o.MaxCycles, o.CrashDumpDir = f.maxCycles, f.crashDir
	o.Predictor, o.PredictBound, o.CalibrationPath = mode, f.predictBound, f.calibration
	o.Context = ctx
	if err := o.Config().Validate(); err != nil {
		return experiments.Options{}, err
	}
	if f.storeDir != "" {
		if o.Store, err = store.Open(f.storeDir); err != nil {
			return experiments.Options{}, err
		}
	}
	return o, nil
}

// exit is os.Exit; tests replace it to observe Main's exit code.
var exit = os.Exit

// Main parses the command line, runs run under a context that SIGINT or
// SIGTERM cancels (a second signal kills the process the usual way),
// profiles the run when -cpuprofile/-memprofile ask for it, and exits
// non-zero with "name: err" on stderr when run or the profiler fails.
func (f *Flags) Main(name string, run func(ctx context.Context) error) {
	if err := f.fs.Parse(os.Args[1:]); err != nil {
		exit(2) // the flag set has already reported the error
		return
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stop, err := startProfiles(f.cpuprofile, f.memprofile)
	if err == nil {
		err = run(ctx)
		if e := stop(); err == nil {
			err = e
		}
	}
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if errors.Is(err, ErrUsage) {
		exit(2)
		return
	}
	exit(1)
}

// WriteFile writes one export file through dump; an empty path (the
// export was not requested) writes nothing.
func WriteFile(path string, dump func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles begins CPU profiling to cpuPath (when non-empty) and
// returns a stop function that ends the CPU profile and writes a heap
// profile to memPath (when non-empty). Either path may be empty; the
// returned stop is never nil and is safe to call exactly once.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
