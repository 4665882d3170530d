// Command cashd serves CASH compilation and Pegasus simulation over
// HTTP/JSON. See package spatial/internal/cashd for the route table and
// README.md for a quickstart.
//
// Usage:
//
//	cashd [-addr :8080] [-addrfile path]
//	      [-workers N] [-queue N] [-cache-entries N] [-max-traces N]
//
// -addrfile writes the actual listen address (useful with -addr :0 for
// tests and CI, which need a free port without racing for one). The
// compile cache lives in memory and ends with the process. A daemon
// serves every program it is sent over plain HTTP; any HTTP client
// (curl, net/http) speaks to it.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spatial/internal/cashd"
	"spatial/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the actual listen address to this file after binding")
	workers := flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	cacheEntries := flag.Int("cache-entries", 0, "compile cache bound in programs (0 = 64)")
	maxTraces := flag.Int("max-traces", 0, "recorded traces held for download (0 = 32)")
	flag.Parse()

	srv, err := cashd.New(cashd.Config{
		Engine: serve.Config{
			Workers:      *workers,
			QueueDepth:   *queue,
			CacheEntries: *cacheEntries,
		},
		MaxTraces: *maxTraces,
	})
	if err != nil {
		log.Fatalf("cashd: %v", err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cashd: listen %s: %v", *addr, err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("cashd: write -addrfile: %v", err)
		}
	}
	log.Printf("cashd: listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("cashd: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("cashd: shutdown: %v", err)
		}
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("cashd: serve: %v", err)
		}
	}
}
