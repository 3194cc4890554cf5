// Command mcmapd is the analysis-as-a-service daemon: a long-running
// HTTP/JSON server over the repository's WCRT analysis (Algorithm 1) and
// genetic design-space exploration. Unlike the one-shot CLIs (wcrtcheck,
// ftmap) it keeps state between requests — coalescing concurrent
// identical analyses, caching results, streaming DSE progress, and
// checkpointing DSE jobs so a cancelled run resumes into a
// byte-identical final archive. With -data the job
// records (and their checkpoints) survive daemon restarts.
//
// Endpoints (see DESIGN.md §9 and the README quickstart):
//
//	POST /analyze            run Algorithm 1 on a mapped spec
//	POST /dse                queue an optimization job (202 + job id)
//	GET  /jobs               list jobs
//	GET  /jobs/{id}          job status and, when done, the result
//	GET  /jobs/{id}/events   stream per-generation progress (NDJSON/SSE)
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	POST /jobs/{id}/resume   restart a cancelled/failed job from its
//	                         newest migration-barrier checkpoint
//	GET  /stats              result-cache/queue/coalescing/fleet counters
//	GET  /healthz            liveness
//
// Fleet roles (see DESIGN.md §10): `mcmapd -worker` turns the process
// into an island worker serving distributed-island legs over TCP for any
// coordinator — an ftmap run with -island-hosts, or another mcmapd whose
// -island-hosts lists this worker. The distributed archives are
// byte-identical to in-process runs.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mcmap/internal/dse"
	"mcmap/internal/service"
)

func main() {
	addr := flag.String("addr", "localhost:7077", "listen address (HTTP, or the island-leg protocol under -worker)")
	worker := flag.Bool("worker", false, "run as a fleet island worker: serve distributed-island legs on -addr instead of HTTP")
	islandHosts := flag.String("island-hosts", "", "comma-separated fleet worker addresses (host:port of `mcmapd -worker` processes); multi-island /dse jobs distribute their islands over them")
	dataDir := flag.String("data", "", "persist job records and checkpoints under this directory and reload them on boot (empty = memory only)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty = disabled); keep it loopback-only")
	workers := flag.Int("workers", 0, "compute budget shared by DSE evaluations; analyses run on the queue runners and borrow no slot (0 = GOMAXPROCS)")
	runners := flag.Int("runners", 0, "queue-runner goroutines; one is reserved for analyses (0 = default 2)")
	queueDepth := flag.Int("queue", 0, "queued-task bound; past it requests get 429 + Retry-After (0 = default 64)")
	resultCache := flag.Int("result-cache", 0, "analyze result-cache entries (0 = default 256)")
	maxBody := flag.Int64("max-body", 0, "request body bound in bytes (0 = default 16 MiB)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	startDebugServer(*debugAddr)

	if *worker {
		runWorker(ctx, *addr)
		return
	}

	srv := service.New(service.Config{
		Workers:         *workers,
		Runners:         *runners,
		QueueDepth:      *queueDepth,
		ResultCacheSize: *resultCache,
		MaxBodyBytes:    *maxBody,
		IslandHosts:     splitHosts(*islandHosts),
		DataDir:         *dataDir,
	}, nil)

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// No write timeout: /jobs/{id}/events streams for the lifetime of
		// a job. Abuse control is the body bound + bounded queue instead.
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	//lint:allow gospawn the ListenAndServe goroutine ends the process via errc; main owns shutdown
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mcmapd: listening on %s (workers=%d queue=%d fleet=%d)",
		*addr, srv.Workers(), srv.QueueDepth(), len(splitHosts(*islandHosts)))

	select {
	case err := <-errc:
		log.Fatalf("mcmapd: %v", err)
	case <-ctx.Done():
	}

	// Graceful stop: stop accepting, let in-flight handlers drain briefly,
	// then cancel jobs and release the pool.
	log.Print("mcmapd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mcmapd: shutdown: %v", err)
	}
	srv.Close()
}

// runWorker is the fleet worker role: one TCP listener, each accepted
// connection hosting one island's frame conversation (dse.ServeIslands).
// A worker is stateless between connections — killing and restarting it
// costs coordinators at most a replayed island log.
func runWorker(ctx context.Context, addr string) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("mcmapd: worker listen: %v", err)
	}
	log.Printf("mcmapd: island worker listening on %s", l.Addr())
	//lint:allow gospawn signal-driven listener close; ServeIslands then returns and main exits
	go func() {
		<-ctx.Done()
		log.Print("mcmapd: worker shutting down")
		l.Close()
	}()
	if err := dse.ServeIslands(l); err != nil {
		log.Fatalf("mcmapd: worker: %v", err)
	}
}

// startDebugServer exposes net/http/pprof and expvar on their own
// address, kept off the service mux so profiling endpoints are never
// reachable through the daemon's public port.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	//lint:allow gospawn debug server lives for the process; errors only log
	go func() {
		srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.ListenAndServe(); err != nil {
			log.Printf("mcmapd: debug server: %v", err)
		}
	}()
	log.Printf("mcmapd: pprof/expvar on http://%s/debug/", addr)
}

func splitHosts(s string) []string {
	if s == "" {
		return nil
	}
	var hosts []string
	for _, h := range strings.Split(s, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}
