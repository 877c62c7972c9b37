// Package daemon runs an API handler the way both daemons (coopd,
// fleetd) serve theirs. It is apart from httpapi because importing
// net/http/pprof registers the profiler on http.DefaultServeMux, which
// the clients that import httpapi have no use for.
package daemon

import (
	"context"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

// Serve runs h on addr until SIGINT or SIGTERM, then shuts down,
// giving in-flight requests 5 s to finish. It returns an error only
// when the listener fails. pprofAddr, when non-empty, serves
// net/http/pprof there: the profiler lives on http.DefaultServeMux and
// the API on its own mux, so profiling stays on a separate, typically
// private, port and is off entirely otherwise. name prefixes the log
// lines.
func Serve(name, addr, pprofAddr string, h http.Handler) error {
	hs := &http.Server{
		Addr: addr,
		// An oversized body makes the JSON decode fail with a 4xx
		// instead of exhausting memory.
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes)
			h.ServeHTTP(w, r)
		}),
		// Slowloris / stuck-peer protection: a client that trickles its
		// headers or body can't pin a connection open indefinitely.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    64 << 10,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if pprofAddr != "" {
		go func() {
			log.Printf("%s: pprof on %s", name, pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("%s: pprof server: %v", name, err)
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: shutting down", name)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("%s: shutdown: %v", name, err)
	}
	return nil
}
