// Command cohsimd is the experiment service daemon: a long-lived HTTP
// JSON API over the internal/harness engine. Clients list the artifact
// registry, submit parameterized jobs (artifact list, seed, sizing,
// machine-config overrides) onto a bounded queue, follow per-cell
// progress over Server-Sent Events, and download assembled TSV /
// replay-JSON results. All jobs share one manifest cell-cache, so a
// repeated request is served from cache in milliseconds.
//
// Jobs execute through the worker-fleet dispatch subsystem: start any
// number of cohsim-worker processes pointed at this daemon and cells
// are leased out to them (with timeout-based reclaim and bounded
// retry); with no workers attached, cells run on the in-process pool
// exactly as before. GET /v1/workers lists the fleet.
//
// Usage:
//
//	cohsimd [-addr :8080] [-out results-daemon] [-queue 16] [-jobs 1]
//	        [-parallel N] [-job-timeout 15m] [-max-timeout 2h]
//	        [-cache=true] [-cache-max 50000] [-persist=true] [-dispatch=true]
//	        [-store-dir DIR] [-store-max-bytes N] [-keys keys.json]
//	        [-lease-ttl 90s] [-worker-ttl 270s] [-lease-attempts 3]
//	        [-max-sweeps 2] [-sweep-inflight 4] [-pprof ""] [-version]
//
// -store-dir replaces the manifest snapshot with a crash-safe
// content-addressed on-disk cell store (one file per entry); several
// cohsimd replicas pointed at the same directory share cache hits.
// -keys loads a tenant keys file ({"tenants":[{"name","key","weight",
// "maxInFlight","maxQueuedPoints","sweepBudget"}]}): every job and
// sweep route then requires "Authorization: Bearer <key>", each tenant
// sees only its own work, quotas apply, and jobs drain through a
// weighted fair queue so no tenant can head-of-line-block another.
//
// -pprof serves net/http/pprof on its own listener (e.g. -pprof
// localhost:6060). It is off by default and should stay bound to
// localhost: the profile endpoints are unauthenticated.
//
// Walkthrough:
//
//	cohsimd -addr :8080 &
//	cohsim-worker -server http://localhost:8080 -name w1 &   # optional fleet
//	curl localhost:8080/v1/artifacts
//	curl -X POST localhost:8080/v1/jobs -d '{"artifacts":["table1"],"sizing":"quick"}'
//	curl localhost:8080/v1/jobs/job-000001/events          # SSE progress
//	curl localhost:8080/v1/jobs/job-000001/artifacts/table1.tsv
//	curl localhost:8080/v1/workers                         # fleet state
//
// With -persist (the default), each job's new cells are appended to
// <out>/manifest.json.journal and fsynced before the job reports done,
// so done jobs survive a crash. SIGINT/SIGTERM drains gracefully: no
// new jobs are admitted, queued jobs are shed, in-flight jobs finish
// (up to -drain-timeout), and the whole manifest snapshot is written
// atomically, replacing the journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/service"
	"coherentleak/internal/store"
	"coherentleak/internal/tenant"
	"coherentleak/internal/version"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		out          = flag.String("out", "results-daemon", "state directory (manifest + per-job results)")
		queue        = flag.Int("queue", 16, "bounded job queue depth (admission control)")
		jobs         = flag.Int("jobs", 1, "jobs executed concurrently")
		parallel     = flag.Int("parallel", runtime.GOMAXPROCS(0), "max cells in flight per job")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "default per-job timeout")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Hour, "cap on client-requested timeouts")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight jobs")
		cache        = flag.Bool("cache", true, "share the manifest cell cache across jobs")
		persist      = flag.Bool("persist", true, "persist manifest and per-job TSVs under -out")
		dispatchOn   = flag.Bool("dispatch", true, "lease cells to attached cohsim-worker processes")
		leaseTTL     = flag.Duration("lease-ttl", 0, "worker cell lease before reclaim (0 = 90s default)")
		workerTTL    = flag.Duration("worker-ttl", 0, "silent-worker expiry (0 = 3x lease TTL)")
		leaseTries   = flag.Int("lease-attempts", 0, "worker attempts per cell before local fallback (0 = 3)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
		kern         = flag.String("kernel", machine.KernelInterp, "default access-stream kernel for jobs: interp or compiled (per-job `kernel` field overrides)")
		cacheMax     = flag.Int("cache-max", 50000, "max cells kept in the manifest cache, LRU-pruned (0 = unbounded)")
		maxSweeps    = flag.Int("max-sweeps", 2, "sweeps executed concurrently (further sweeps queue)")
		sweepFlight  = flag.Int("sweep-inflight", 0, "concurrent points per sweep (0 = 4)")
		storeDir     = flag.String("store-dir", "", "shared on-disk cell store directory (replaces the manifest cache; replicas sharing it share hits)")
		storeMax     = flag.Int64("store-max-bytes", 0, "size bound on the -store-dir payload, oldest entries evicted (0 = unbounded)")
		keysPath     = flag.String("keys", "", "tenant keys file enabling API-key auth, quotas and fair queueing (empty = anonymous mode)")
		showVersion  = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("cohsimd", version.Get())
		return
	}

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling surface is
		// opt-in and never mixed into the public job API.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "cohsimd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "cohsimd: pprof:", err)
			}
		}()
	}

	base := machine.DefaultConfig()
	base.Kernel = *kern
	if err := base.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cohsimd:", err)
		os.Exit(1)
	}

	opts := service.Options{
		Registry:            experiments.Artifacts(),
		BaseConfig:          &base,
		QueueDepth:          *queue,
		Executors:           *jobs,
		CellParallel:        *parallel,
		DefaultTimeout:      *jobTimeout,
		MaxTimeout:          *maxTimeout,
		DefaultSeed:         experiments.DefaultSeed,
		DisableDispatch:     !*dispatchOn,
		DispatchLeaseTTL:    *leaseTTL,
		DispatchWorkerTTL:   *workerTTL,
		DispatchMaxAttempts: *leaseTries,
		MaxSweeps:           *maxSweeps,
		SweepInFlight:       *sweepFlight,
		Log:                 os.Stderr,
	}
	if *keysPath != "" {
		reg, err := tenant.Load(*keysPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cohsimd:", err)
			os.Exit(1)
		}
		opts.Tenants = reg
		fmt.Fprintf(os.Stderr, "cohsimd: authentication enabled (%d tenant(s) from %s)\n", len(reg.Tenants()), *keysPath)
	}
	if err := run(opts, *addr, *out, *drainTimeout, *cache, *persist, *cacheMax, *storeDir, *storeMax); err != nil {
		fmt.Fprintln(os.Stderr, "cohsimd:", err)
		os.Exit(1)
	}
}

func run(opts service.Options, addr, out string, drainTimeout time.Duration, cache, persist bool, cacheMax int, storeDir string, storeMax int64) error {
	manifestPath := filepath.Join(out, "manifest.json")
	if persist {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		opts.ResultsDir = filepath.Join(out, "jobs")
	}
	switch {
	case storeDir != "":
		// The shared on-disk store persists per entry and is visible to
		// every replica pointed at the directory; the manifest snapshot
		// under -out is not used.
		disk, err := store.NewDisk(storeDir, storeMax)
		if err != nil {
			return err
		}
		opts.Store = disk
		fmt.Fprintf(os.Stderr, "cohsimd: shared cell store at %s (%d entries)\n", storeDir, disk.Len())
	case cache && persist:
		m, err := harness.LoadManifest(manifestPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cohsimd: starting with empty cell cache: %v\n", err)
			m = harness.NewManifest()
		}
		opts.Manifest = m
		opts.ManifestPath = manifestPath
	case cache:
		// In-memory only: Options.Manifest defaults to a fresh manifest
		// shared across jobs for the daemon's lifetime.
	default:
		opts.DisableCache = true
	}
	if opts.Store == nil {
		if opts.Manifest != nil && cacheMax > 0 {
			opts.Manifest.SetLimit(cacheMax)
		} else if !opts.DisableCache && cacheMax > 0 {
			m := harness.NewManifest()
			m.SetLimit(cacheMax)
			opts.Manifest = m
		}
	}

	svc, err := service.New(opts)
	if err != nil {
		return err
	}

	server := &http.Server{Addr: addr, Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "cohsimd: listening on %s (queue %d, %d executor(s), %d cells in flight, dispatch %v)\n",
			addr, opts.QueueDepth, opts.Executors, opts.CellParallel, !opts.DisableDispatch)
		if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "cohsimd: draining (in-flight jobs finish, queued jobs shed)")

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the job queue first — while it drains, HTTP keeps answering
	// (healthz reports 503, submits are refused, SSE streams end as jobs
	// reach terminal states) — then close the listener.
	svcErr := svc.Shutdown(drainCtx)
	httpErr := server.Shutdown(drainCtx)
	fmt.Fprintln(os.Stderr, "cohsimd: stopped")
	return errors.Join(svcErr, httpErr)
}
