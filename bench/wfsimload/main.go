// Command wfsimload is the repository's benchmark: a single-process load
// generator and orchestrator that starts cmd/wfsimd as a child on a free
// loopback port, feeds it only inputs generated from -seed, drives it over
// HTTP/JSON through a fixed schedule (set-up → closed loop → open loop →
// verify), checks every answer against an in-process reference engine, and
// prints every metric by name with its unit as one JSON line.
//
//	wfsimload -workload NAME -seed N -seconds S -trace 0|1 [-wfsimd BIN]
//	wfsimload -compare a.jsonl b.jsonl
//	wfsimload -calibrate set1.jsonl set2.jsonl ...
//
// See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "wfsimload: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("wfsimload", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: search_scan, search_hot, ingest_durable or mixed_churn")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured time on the reference box; sizes the fixed schedules")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	wfsimd := fs.String("wfsimd", "", "prebuilt wfsimd binary (built from source when empty)")
	out := fs.String("out", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two result files: wfsimload -compare parent.jsonl change.jsonl")
	calibrate := fs.Bool("calibrate", false, "summarise result files, one per set of runs, as calibration JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *calibrate:
		if fs.NArg() < 2 {
			return fmt.Errorf("-calibrate needs at least two result files")
		}
		return calibrateFiles(os.Stdout, fs.Args())
	}
	wl := workloadByName(*name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}

	// SIGINT/SIGTERM cancel the run; every exit path below kills the child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, *wfsimd)
	if err != nil {
		return err
	}
	defer e.close()

	res, err := runWorkload(ctx, e, wl, *seed, fullSizes(*seconds), *trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if *out != "" {
		rec, err := json.Marshal(record{Workload: wl.name, Seed: *seed, Trace: *trace, result: *res})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runWorkload runs one workload and returns its result line: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one. Any
// failure is an error; nothing partial is reported.
func runWorkload(ctx context.Context, e *env, wl *workload, seed int64, sz sizes, traced bool) (*result, error) {
	if traced {
		sz = sz.traced()
	}
	s, err := newSession(e, wl, seed, sz)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var res *result
	if traced {
		res, err = s.perLayer(ctx, filepath.Join(e.root, "bench", "out", wl.name+".trace.json"))
	} else {
		var m *measured
		if m, err = s.run(ctx); err == nil {
			res = s.endToEnd(m)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s seed %d: metric %s is not finite", wl.name, seed, name)
		}
	}
	return res, nil
}
