// Command xqd is the XQuery daemon: it serves the engine over HTTP with a
// shared document catalog, a compiled-plan LRU cache, and admission
// control (bounded workers + bounded queue, fast 503s under overload).
//
// Usage:
//
//	xqd [flags]
//
//	xqd -addr :8090 -doc orders=orders.xml -strategy twig-join
//	curl -X PUT --data-binary @bib.xml localhost:8090/documents/bib
//	curl -d '{"query":"count(/bib/book)","doc":"bib"}' localhost:8090/query
//	curl -d '{"query":"count(/bib/book)","doc":"bib"}' 'localhost:8090/query?explain=1'
//	curl -H 'Content-Type: application/xml' --data-binary @bib.xml \
//	     'localhost:8090/query?query=/bib/book/title'   # streamed ingestion
//	curl localhost:8090/stats
//	curl localhost:8090/metrics   # Prometheus text exposition
//	curl localhost:8090/slow      # slow-query log with execution profiles
//
// With -pprof 127.0.0.1:6060, net/http/pprof is served on that separate
// address only — never on the public listener.
//
// The bound address is printed on startup (use -addr 127.0.0.1:0 to pick a
// free port).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xqgo"
	"xqgo/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8090", "listen address")
		workers   = flag.Int("workers", 0, "max concurrent query executions (0 = GOMAXPROCS)")
		qWorkers  = flag.Int("query-workers", 0, "morsel workers per query, leased from idle executor slots (0 = off, -1 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth before rejecting with 503")
		planCache = flag.Int("plan-cache", 256, "compiled-plan LRU capacity")
		timeout   = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxResult = flag.Int64("max-result-bytes", 32<<20, "per-request serialized result cap (-1 = unlimited)")
		maxQuery  = flag.Int64("max-query-bytes", 0, "per-query tracked-memory budget in bytes; overage fails the query with err:XQGO0001 (0 = unlimited)")
		maxProc   = flag.Int64("max-process-bytes", 0, "process memory soft cap in bytes: sets the Go runtime soft limit and sheds new work with 503 when tracked bytes near it (0 = unlimited)")
		strategy  = flag.String("strategy", "auto", "join strategy for //a//b chains: auto (cost-based), navigation, twig-join")
		memo      = flag.Bool("memo", false, "memoize pure user-function calls within each execution")
		stripWS   = flag.Bool("strip-ws", false, "drop whitespace-only text nodes of registered documents; request bodies and feeds are never stripped")
		poolText  = flag.Bool("pool-text", false, "dictionary-pool repeated text values when parsing documents")
		slowAfter = flag.Duration("slow-threshold", 250*time.Millisecond, "log queries slower than this to GET /slow (0 = default, negative = disabled)")
		slowSize  = flag.Int("slow-log", 64, "slow-query log ring capacity")
		noProf    = flag.Bool("no-profiling", false, "disable background engine-counter profiling (explain=1 still profiles)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
		maxSubs   = flag.Int("max-subscriptions", 0, "continuous queries per /subscribe request (0 = default 16)")
		maxFeeds  = flag.Int("max-subscribers", 0, "concurrent subscriber feeds before 503 (0 = default 64)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this extra address (e.g. 127.0.0.1:6060); never exposed on the public listener")
		noTrace   = flag.Bool("no-tracing", false, "disable per-request trace capture (GET /traces, slow-log links, exemplars)")
		traceRing = flag.Int("trace-ring", 0, "completed traces retained for GET /traces (0 = default 256)")
		logFormat = flag.String("log-format", "", "structured access/lifecycle logging: text or json (empty = legacy plain stderr)")
	)
	var docs multiFlag
	flag.Var(&docs, "doc", "preload document: name=file.xml (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: xqd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// -log-format switches on structured logging: lifecycle events and one
	// access-log record per request, each carrying the request's trace id so
	// log lines correlate with GET /traces/{id}.
	var logger *slog.Logger
	switch *logFormat {
	case "":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("-log-format %q: want text or json", *logFormat))
	}

	svc := service.New(service.Config{
		Workers:               *workers,
		QueryWorkers:          *qWorkers,
		QueueDepth:            *queue,
		PlanCacheSize:         *planCache,
		DefaultTimeout:        *timeout,
		MaxResultBytes:        *maxResult,
		MaxQueryBytes:         *maxQuery,
		ProcessSoftLimitBytes: *maxProc,
		SlowQueryThreshold:    *slowAfter,
		SlowLogSize:           *slowSize,
		DisableProfiling:      *noProf,
		MaxSubscriptions:      *maxSubs,
		MaxSubscribers:        *maxFeeds,
		DisableTracing:        *noTrace,
		TraceRingSize:         *traceRing,
		Options: xqgo.Options{
			Strategy:         parseStrategy(*strategy),
			MemoizeFunctions: *memo,
		},
		ParseOptions: xqgo.ParseOptions{
			StripWhitespace: *stripWS,
			PoolText:        *poolText,
		},
	})

	for _, spec := range docs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("-doc %q: want name=file.xml", spec))
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		info, err := svc.RegisterDocument(name, f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("-doc %s: %v", spec, err))
		}
		if logger != nil {
			logger.Info("document loaded", "name", name, "bytes", info.Bytes, "nodes", info.Nodes)
		} else {
			fmt.Fprintf(os.Stderr, "xqd: loaded %s: %d bytes, %d nodes\n", name, info.Bytes, info.Nodes)
		}
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own (typically loopback) listener so
		// profiling endpoints are never reachable through the public address.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("-pprof: %v", err))
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "xqd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			psrv := &http.Server{Handler: pmux}
			if err := psrv.Serve(pln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "xqd: pprof server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announce the bound address on stdout so callers using :0 (tests,
	// scripts) can discover the port.
	fmt.Printf("xqd listening on %s\n", ln.Addr())
	handler := service.NewHTTPHandler(svc)
	if logger != nil {
		logger.Info("listening", "addr", ln.Addr().String())
		handler = service.AccessLog(logger, handler)
	}
	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		if logger != nil {
			logger.Info("shutting down", "drain", *drain)
		} else {
			fmt.Fprintf(os.Stderr, "xqd: shutting down (drain %v)\n", *drain)
		}
		// End live subscriber feeds first — each gets a terminal "goodbye"
		// SSE event — so http.Server.Shutdown (which waits for in-flight
		// requests but never cancels them) can actually drain.
		svc.Shutdown()
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "xqd: drain deadline exceeded, closing:", err)
			srv.Close()
		}
		fmt.Println("xqd shut down")
	}
}

// parseStrategy maps the -strategy flag to a join strategy.
func parseStrategy(name string) xqgo.Strategy {
	switch name {
	case "", "auto":
		return xqgo.StrategyAuto
	case "navigation":
		return xqgo.ForceNavigation
	case "twig-join":
		return xqgo.ForceTwig
	default:
		fatal(fmt.Errorf("-strategy %q: want auto, navigation or twig-join", name))
		return xqgo.StrategyAuto // unreachable
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xqd:", err)
	os.Exit(1)
}
