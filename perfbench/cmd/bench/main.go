// Command bench is the repository's benchmark: a closed-loop RESP load
// generator (2 connections) that drives a server process built from
// this checkout through one workload and checks every reply.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//	      --server <benchserver binary> --work <scratch directory>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload in-process against three rungs of the stack (RESP
// server, core.Store, LSM engines), records spans around every call into
// them, and prints per-layer metrics. Human-readable lines come first;
// the last line of output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is non-zero when a
// reply fails verification or the run cannot complete.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"p2kvs/perfbench/internal/load"
)

// config is one run's settings.
type config struct {
	w         load.Workload
	seed      int64
	seconds   time.Duration
	serverBin string
	work      string
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "op stream seed")
		seconds   = flag.Int("seconds", 10, "measured work: as many windows as the reference host completes in this many seconds")
		trace     = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		serverBin = flag.String("server", "", "benchserver binary (end-to-end runs)")
		work      = flag.String("work", ".bench_build/work", "directory for data and span files")
	)
	flag.Parse()
	// A run must end within 180 seconds; one that hangs fails instead.
	time.AfterFunc(170*time.Second, func() { fatal(fmt.Errorf("run exceeded 170s")) })
	// The generator's share of the host: two connections, two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	w, err := load.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	absWork, err := filepath.Abs(*work)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(absWork, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, serverBin: *serverBin, work: absWork}

	var res result
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		if cfg.serverBin == "" {
			fatal(fmt.Errorf("--server is required for an end-to-end run"))
		}
		res, err = runE2E(cfg)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
