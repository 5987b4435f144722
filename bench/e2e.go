package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"xqgo/internal/service"
)

// server is a real xqd in this process: the service behind its HTTP handler
// on a loopback listener, with the configuration xqd ships.
type server struct {
	svc  *service.Service
	http *http.Server
	base string
	done chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{})
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: service.NewHTTPHandler(svc)},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed from stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to end.
func (s *server) stop() {
	s.svc.Shutdown()
	_ = s.http.Close()
	<-s.done
}

// instance is one set-up workload: generated inputs, a running server with
// the documents registered and the plans warm.
type instance struct {
	sc  scenario
	srv *server
}

func (in *instance) close() { in.srv.stop() }

// runConfig is how long and how often one run measures. The command line
// always uses defaultConfig with its -seconds; the self-tests shorten it.
type runConfig struct {
	seconds    float64
	warmup     time.Duration
	setupReps  int // set-ups per run; setup_s is their median
	batchBytes int // XML each parsing batch of a traced run reads
}

func defaultConfig(seconds float64) runConfig {
	return runConfig{seconds: seconds, warmup: warmupSeconds * time.Second, setupReps: 3, batchBytes: 8 << 20}
}

func (c runConfig) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setUp builds a workload from nothing and returns how long that took:
// generating and serialising the inputs, starting the listener, registering
// documents and warming plans and indexes. The oracle is not part of it.
func setUp(spec workloadSpec, seed int64) (*instance, time.Duration, error) {
	runtime.GC() // the previous set-up's documents are not this one's cost
	start := time.Now()
	sc := spec.new()
	sc.generate(seed)
	srv, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	c := newClient(srv.base)
	err = sc.install(c)
	c.close()
	took := time.Since(start)
	if err != nil {
		srv.stop()
		return nil, 0, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	return &instance{sc: sc, srv: srv}, took, nil
}

// setUpMedian sets the workload up reps times, keeps the last instance with
// its oracle filled, and returns the median set-up time in seconds.
func setUpMedian(spec workloadSpec, seed int64, reps int) (*instance, float64, error) {
	var times []float64
	var in *instance
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
		}
		var took time.Duration
		var err error
		in, took, err = setUp(spec, seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
	}
	if err := in.sc.expect(); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("%s oracle: %w", spec.name, err)
	}
	return in, median(times), nil
}

// sample is one successful request.
type sample struct {
	latency, ttfb time.Duration
	kind          opKind
}

// window is what the closed loop observed between two instants.
type window struct {
	elapsed   time.Duration
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	xmlBytes  int64  // XML sent by successful requests: bodies, feeds, PUTs
	allocated uint64 // bytes allocated by the whole process
	heapSys   uint64
}

func numClients() int { return min(maxClients, runtime.GOMAXPROCS(0)) }

// runLoop drives the closed loop: after warm-up, whose requests are not
// recorded, every client keeps sending its sequence until the measured time
// is over. Each client sends its next request only when the last one has been
// answered and checked.
func runLoop(in *instance, clients int, warmup, measure time.Duration) window {
	type state struct {
		c    *client
		next int
		w    window
	}
	states := make([]*state, clients)
	for i := range states {
		states[i] = &state{c: newClient(in.srv.base)}
		states[i].w.samples = make([]sample, 0, 1<<16)
	}
	phase := func(d time.Duration, record bool) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for ci, st := range states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					o := in.sc.op(ci, st.next)
					st.next++
					r := st.c.do(&o)
					if !record {
						continue
					}
					st.w.attempted++
					if r.err != nil {
						st.w.failed++
						if st.w.firstErr == nil {
							st.w.firstErr = fmt.Errorf("client %d request %d: %w", ci, st.next-1, r.err)
						}
						continue
					}
					if o.kind.sendsXML() {
						st.w.xmlBytes += int64(len(o.body))
					}
					st.w.samples = append(st.w.samples, sample{r.latency, r.ttfb, o.kind})
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	phase(warmup, false)
	runtime.GC() // start every measured window from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	total := window{elapsed: phase(measure, true)}
	runtime.ReadMemStats(&after)
	total.allocated = after.TotalAlloc - before.TotalAlloc
	total.heapSys = after.HeapSys
	for _, st := range states {
		st.c.close()
		total.samples = append(total.samples, st.w.samples...)
		total.attempted += st.w.attempted
		total.failed += st.w.failed
		total.xmlBytes += st.w.xmlBytes
		total.firstErr = errors.Join(total.firstErr, st.w.firstErr)
	}
	return total
}

// latencies returns the sorted latencies in milliseconds of the samples keep
// accepts.
func (w *window) latencies(keep func(sample) bool, ttfb bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if keep(s) {
			d := s.latency
			if ttfb {
				d = s.ttfb
			}
			out = append(out, float64(d)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

func anySample(sample) bool { return true }

// percentileOf is a latency percentile as a metric: null when some samples
// exist but fewer than minBeyond lie beyond it, 0 with n=0 when none exist.
func percentileOf(name string, sorted []float64, p float64) metric {
	v, ok := percentile(sorted, p)
	return metric{Name: name, Unit: "ms", Value: v, Null: !ok && len(sorted) > 0, N: len(sorted)}
}

// endToEnd folds a window into the end-to-end metrics. ingest_mb_s is there
// only when the workload sent XML.
func (w *window) endToEnd(setupS float64, setupReps int) []metric {
	secs := w.elapsed.Seconds()
	done := float64(len(w.samples))
	lat := w.latencies(anySample, false)
	// Time to first byte is the paper's time to first answer only where the
	// response streams; a workload without such requests reports all of them.
	ttfb := w.latencies(func(s sample) bool { return s.kind.streams() }, true)
	if len(ttfb) == 0 {
		ttfb = w.latencies(anySample, true)
	}
	ms := []metric{
		{Name: "setup_s", Unit: "s", Value: setupS, N: setupReps},
		{Name: "throughput_ops_s", Unit: "ops/s", Value: done / secs, N: len(w.samples)},
		percentileOf("latency_p50_ms", lat, 0.50),
		percentileOf("latency_p95_ms", lat, 0.95),
		percentileOf("ttfb_p50_ms", ttfb, 0.50),
		{Name: "alloc_kb_per_op", Unit: "KB/op", Value: float64(w.allocated) / 1024 / max(1, float64(w.attempted)), N: w.attempted},
	}
	if w.xmlBytes > 0 {
		ms = append(ms, metric{Name: "ingest_mb_s", Unit: "MB/s", Value: float64(w.xmlBytes) / 1e6 / secs, N: len(w.samples)})
	}
	return ms
}

func (w *window) failShare() float64 {
	if w.attempted == 0 {
		return 0
	}
	return float64(w.failed) / float64(w.attempted)
}
