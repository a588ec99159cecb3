// Command teemd is the TEEM simulation daemon: a long-running HTTP/JSON
// service that hosts simulations as managed jobs. Clients submit
// scenarios (inline JSON, preset names, or arrival-trace replays),
// scenario × governor grids and Fig. 5-style experiments; poll job
// status; stream live NDJSON telemetry (temperature / frequency / power
// samples as the engine ticks); and cancel in-flight work, which aborts
// within one simulation tick. Identical requests are collapsed by a
// request-hash single-flight cache, operational metrics are exported via
// /metrics and expvar (/debug/vars), and SIGTERM drains gracefully:
// submissions are rejected, in-flight jobs get -drain-timeout to finish,
// stragglers are cancelled.
//
// Usage:
//
//	teemd [serve] -addr :8080 -workers 4 -queue 64
//	teemd load -addr http://127.0.0.1:8080 -clients 64
//
// The API, with curl:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"preset":"sunlight","governors":["ondemand","teem"]}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -sN localhost:8080/v1/jobs/j1/stream        # NDJSON telemetry
//	curl -s localhost:8080/v1/jobs/j1/result         # byte-identical to teemscenario
//	curl -s -X POST localhost:8080/v1/jobs/j1/cancel
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"teem/internal/buildinfo"
	"teem/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("teemd: ")

	args := os.Args[1:]
	if len(args) > 0 && args[0] == "load" {
		runLoad(args[1:])
		return
	}
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
	}
	runServe(args)
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers on either listener, so a connection that trickles or
// never sends them cannot pin a server goroutine. Request bodies and
// streamed responses are not bounded by it.
const readHeaderTimeout = 5 * time.Second

func runServe(args []string) {
	fs := flag.NewFlagSet("teemd serve", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		workers = fs.Int("workers", 0, "concurrently executing jobs (0 = one per CPU)")
		queue   = fs.Int("queue", 64, "queued-job admission bound (a full queue sheds lower-priority work or answers 429)")
		keep    = fs.Int("keep", 1024, "finished jobs retained for status/result queries")
		drain   = fs.Duration("drain-timeout", 15*time.Second, "SIGTERM grace: time in-flight jobs get before cancellation")

		journal        = fs.String("journal", "", "write-ahead job journal path; a restart re-runs its uncompleted jobs (empty = volatile)")
		journalCompact = fs.Int64("journal-compact", 0, "journal size that triggers compaction in bytes (0 = 1 MiB)")

		quotaRate   = fs.Float64("quota-rate", 0, "per-tenant sustained submissions/s (0 = unlimited)")
		quotaBurst  = fs.Int("quota-burst", 0, "per-tenant submission burst (0 = ceil(rate))")
		quotaActive = fs.Int("quota-active", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")

		retryMax  = fs.Int("retry-max", 0, "total execution attempts for transiently failing jobs (0 = 3, 1 = no retry)")
		retryBase = fs.Duration("retry-base", 0, "retry backoff base, doubling per attempt with jitter (0 = 50ms)")

		faultPanic      = fs.Int("fault-panic-every", 0, "fault injection: panic every Nth job execution (0 = off)")
		faultJournalErr = fs.Int("fault-journal-err-every", 0, "fault injection: drop every Nth journal append (0 = off)")
		faultSlowCell   = fs.Duration("fault-slow-cell", 0, "fault injection: delay every completed grid cell by this much (0 = off)")

		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:0; empty = off)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	_ = fs.Parse(args)
	if *version {
		fmt.Println(buildinfo.String("teemd"))
		return
	}

	opts := service.Options{
		Workers:             *workers,
		QueueDepth:          *queue,
		KeepJobs:            *keep,
		JournalPath:         *journal,
		JournalCompactBytes: *journalCompact,
		Retry:               service.RetryPolicy{MaxAttempts: *retryMax, BaseDelay: *retryBase},
	}
	if *quotaRate > 0 || *quotaActive > 0 {
		opts.Quotas = &service.QuotaConfig{Default: service.TenantQuota{
			RatePerSec: *quotaRate,
			Burst:      *quotaBurst,
			MaxActive:  *quotaActive,
		}}
	}
	if *faultPanic > 0 || *faultJournalErr > 0 || *faultSlowCell > 0 {
		log.Printf("fault injection active: panic-every=%d journal-err-every=%d slow-cell=%s",
			*faultPanic, *faultJournalErr, *faultSlowCell)
		opts.Faults = &service.FaultConfig{
			PanicEvery:      *faultPanic,
			JournalErrEvery: *faultJournalErr,
			SlowCell:        *faultSlowCell,
		}
	}
	svc, err := service.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	if *journal != "" {
		m := svc.Metrics()
		log.Printf("journal %s: %d job(s) recovered", *journal, m.Recoveries())
	}
	svc.Metrics().PublishExpvar()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s", buildinfo.String("teemd"))
	log.Printf("listening on %s", ln.Addr())

	if *pprofAddr != "" {
		// Profiling rides a separate listener so the production API port
		// never exposes pprof, and an operator can bind it to loopback
		// only.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof listening on %s", pln.Addr())
		go func() { _ = (&http.Server{Handler: pmux, ReadHeaderTimeout: readHeaderTimeout}).Serve(pln) }()
	}

	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutdown signal; draining jobs (timeout %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		log.Printf("drain deadline hit; in-flight jobs cancelled")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
	}
	log.Printf("bye: %s", svc.Metrics())
}
