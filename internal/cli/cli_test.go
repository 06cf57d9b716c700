package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"duplo/internal/experiments"
)

func bind(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOptions pins the Options each binary built by hand from the same
// command line before the flags were shared.
func TestOptions(t *testing.T) {
	ctx := context.Background()
	defaults := experiments.Options{MaxCTAs: 96, SimSMs: 4, Context: ctx,
		Predictor: experiments.PredictorOff, PredictBound: 0.15}
	for _, tc := range []struct {
		name string
		args []string
		base experiments.Options
		want experiments.Options
	}{
		{name: "defaults", want: defaults},
		{
			name: "duploexp",
			args: []string{"-ctas", "12", "-sms", "2", "-workers", "3", "-max-cycles", "5000",
				"-crash-dir", "crash", "-predict", "hybrid", "-predict-bound", "0.1", "-calibration", "cal.json"},
			base: experiments.Options{Verbose: true, Seed: 7},
			want: experiments.Options{MaxCTAs: 12, SimSMs: 2, Workers: 3, Verbose: true, Context: ctx,
				MaxCycles: 5000, CrashDumpDir: "crash", Predictor: experiments.PredictHybrid,
				PredictBound: 0.1, CalibrationPath: "cal.json", Seed: 7},
		},
		{
			name: "duplosim",
			args: []string{"-ctas", "0", "-sms", "1", "-workers", "1", "-predict", "predict-all"},
			base: experiments.Options{WallTimeout: time.Minute},
			want: experiments.Options{MaxCTAs: 0, SimSMs: 1, Workers: 1, Context: ctx,
				WallTimeout: time.Minute, Predictor: experiments.PredictAll, PredictBound: 0.15},
		},
		{
			name: "duploserved",
			args: []string{"-ctas", "8", "-sms", "2", "-max-cycles", "1000000"},
			base: experiments.Options{WallTimeout: time.Second, Seed: 3, Verbose: true},
			want: experiments.Options{MaxCTAs: 8, SimSMs: 2, Verbose: true, Context: ctx, MaxCycles: 1000000,
				WallTimeout: time.Second, Predictor: experiments.PredictorOff, PredictBound: 0.15, Seed: 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := bind(t, tc.args...).Options(ctx, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Options:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestOptionsOpensStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	o, err := bind(t, "-store", dir).Options(context.Background(), experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Store == nil || o.Store.Dir() != dir {
		t.Fatalf("Store = %v, want one rooted at %s", o.Store, dir)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsRejects checks that out-of-range flags fail before a store is
// opened or a runner built. -sms 0 used to fall back to 4 SMs silently.
func TestOptionsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		base experiments.Options
	}{
		{args: []string{"-sms", "0"}},
		{args: []string{"-sms", "-3"}},
		{args: []string{"-sms", "81"}},
		{args: []string{"-ctas", "-1"}},
		{args: []string{"-max-cycles", "-1"}},
		{args: []string{"-predict", "bogus"}},
		{base: experiments.Options{WallTimeout: -time.Second}},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		args := append([]string{"-store", dir}, tc.args...)
		if _, err := bind(t, args...).Options(context.Background(), tc.base); err == nil {
			t.Errorf("%v (base %+v): no error", tc.args, tc.base)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: store opened before the options were rejected", tc.args)
		}
	}
}

func TestMainExitCodes(t *testing.T) {
	defer func(args []string, e func(int)) { os.Args, exit = args, e }(os.Args, exit)
	os.Args = []string{"prog"}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, -1},
		{errors.New("boom"), 1},
		{fmt.Errorf("%w: unknown experiment %q", ErrUsage, "bogus"), 2},
	} {
		code := -1
		exit = func(c int) { code = c }
		f := Bind(flag.NewFlagSet("prog", flag.ContinueOnError))
		f.Main("prog", func(ctx context.Context) error {
			if ctx.Err() != nil {
				t.Error("run's context already done")
			}
			return tc.err
		})
		if code != tc.want {
			t.Errorf("run error %v: exit code %d, want %d (-1 = no exit call)", tc.err, code, tc.want)
		}
	}
}

func TestMainBadFlagExits2(t *testing.T) {
	defer func(args []string, e func(int)) { os.Args, exit = args, e }(os.Args, exit)
	os.Args = []string{"prog", "-no-such-flag"}
	code := -1
	exit = func(c int) { code = c }
	fs := flag.NewFlagSet("prog", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	ran := false
	Bind(fs).Main("prog", func(context.Context) error { ran = true; return nil })
	if code != 2 || ran {
		t.Errorf("exit code %d, ran %v; want 2 without running", code, ran)
	}
}

func TestWriteFile(t *testing.T) {
	if err := WriteFile("", func(io.Writer) error { t.Error("dump called for an empty path"); return nil }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "a,b\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "a,b\n" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("dump error = %v, want %v", err, boom)
	}
	if err := WriteFile(filepath.Join(path, "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("expected error for uncreatable path")
	}
}
