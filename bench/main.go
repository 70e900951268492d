// Command bench is the repo's benchmark: the topology query service
// assembled in-process behind a real loopback listener, driven by one
// closed-loop client. See README.md for the workloads, the metrics and
// why the load is held to one core.
//
//	bash bench/run.sh --workload join_filter --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -workload all            # every workload, one process
//	bash bench/run.sh -selfcheck               # A/B noise check of the benchmark itself
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	opt := defaultOptions()
	flag.StringVar(&opt.Workload, "workload", opt.Workload, "workload to run, or all")
	flag.Int64Var(&opt.Seed, "seed", opt.Seed, "traffic seed: deals the order of the probe and insert geometries")
	flag.IntVar(&opt.Seconds, "seconds", opt.Seconds, "run length: 1 warm-up + 2×(seconds-1) measured rounds of about half a second")
	flag.IntVar(&opt.Trace, "trace", opt.Trace, "0: end-to-end metrics; 1: traced passes and per-layer metrics")
	flag.Float64Var(&opt.Scale, "scale", opt.Scale, "cardinality multiplier of the resident datasets")
	flag.IntVar(&opt.Ops, "ops", opt.Ops, "ops per round (0: the workload's own count, sized for scale 0.5)")
	flag.StringVar(&opt.Scratch, "scratch", opt.Scratch, "directory for WAL and snapshot files")
	selfcheck := flag.Bool("selfcheck", false, "run every workload 5+5 times and compare the two sets")
	flag.Parse()
	if err := run(opt, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	todo := workloads
	if opt.Workload != "all" {
		w, ok := findWorkload(opt.Workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", opt.Workload)
		}
		todo = []workload{w}
	}
	bf, err := readBenchmarkFile(benchmarkPath())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.Out, 0o755); err != nil {
		return err
	}
	e, err := newEnv(opt)
	if err != nil {
		return err
	}
	defer e.close()
	if selfcheck {
		return runSelfcheck(e, bf, todo)
	}
	// One result line per workload; the driver runs one workload and
	// reads the last line.
	for _, w := range todo {
		rep, err := runWorkload(e, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		// The program refuses to report under names or units other than
		// the declared ones, so the two cannot drift apart unnoticed.
		if err := bf.checkEmitted(opt.Trace, rep.Metrics); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprint(os.Stderr, rep.summary())
		full, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := writeJSONFile(filepath.Join(opt.Out, "report-"+w.name+".json"), full); err != nil {
			return err
		}
		line, err := json.Marshal(rep.result())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}
