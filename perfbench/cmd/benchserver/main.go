// Command benchserver is the benchmark's server process: the store and
// RESP server p2kvs-server would run with the settings in sut.Flags,
// plus a control channel on stdin/stdout the load generator uses between
// measured windows.
//
// On start it prints "addr <host:port>". It then answers one line per
// command read from stdin:
//
//	load <workload>  write every key of the workload once; replies "ok"
//	drain            flush memtables and run due compactions; replies "ok"
//	cpu              user+system CPU of this process in microseconds
//	quit             (or end of input) shut down gracefully and exit
//
// Usage: benchserver -dir <data directory>
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"syscall"

	"p2kvs/internal/server"
	"p2kvs/perfbench/internal/load"
	"p2kvs/perfbench/internal/sut"
)

func main() {
	dir := flag.String("dir", "", "data directory (required)")
	flag.Parse()
	if *dir == "" {
		log.Fatal("benchserver: -dir is required")
	}
	store, err := sut.Open(*dir)
	if err != nil {
		log.Fatalf("benchserver: open: %v", err)
	}
	srv, addr, err := sut.Serve(store)
	if err != nil {
		log.Fatalf("benchserver: listen: %v", err)
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
		if err := out.Flush(); err != nil {
			log.Fatalf("benchserver: control reply: %v", err)
		}
	}
	reply("addr %s", addr)

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		switch cmd {
		case "load":
			w, err := load.ByName(arg)
			if err == nil {
				err = sut.Load(store, w)
			}
			if err != nil {
				reply("err %v", err)
				continue
			}
			reply("ok")
		case "drain":
			if err := sut.Drain(store); err != nil {
				reply("err %v", err)
				continue
			}
			reply("ok")
		case "cpu":
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				reply("err %v", err)
				continue
			}
			reply("%d", tvUs(ru.Utime)+tvUs(ru.Stime))
		case "quit":
			shutdown(srv)
			return
		default:
			reply("err unknown command %q", cmd)
		}
	}
	shutdown(srv)
}

func shutdown(srv *server.Server) {
	if err := sut.Shutdown(srv); err != nil {
		log.Fatalf("benchserver: shutdown: %v", err)
	}
}

func tvUs(tv syscall.Timeval) int64 { return tv.Sec*1e6 + tv.Usec }
