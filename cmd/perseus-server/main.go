// Command perseus-server runs the Perseus server (paper §3.2, Figure 4):
// a cluster-wide singleton that registers training jobs, receives online
// profiling results, characterizes time-energy frontiers asynchronously,
// and serves energy schedules over HTTP — including straggler reactions
// via POST /jobs/{id}/straggler. Metrics, health, and recent events are
// served at /metrics, /healthz, and /debug/events; -pprof additionally
// mounts net/http/pprof under /debug/pprof/.
package main

import (
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"perseus/internal/server"
)

// Connection timeouts: a client gets readHeaderTimeout to send its
// request headers, and a keep-alive connection may sit idle between
// requests for idleTimeout. There is deliberately no WriteTimeout (nor
// a ReadTimeout, whose deadline also cuts the connection under a
// running handler): a ?wait= long-poll legitimately holds its response
// for up to the server's 30 s maxScheduleWait.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":7787", "listen address")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	handler := server.New().Handler()
	if *withPprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	log.Printf("perseus server listening on %s", *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	log.Fatal(srv.ListenAndServe())
}
