package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// reqTimeout bounds one request; a request still unanswered then is a
// failure and counts as missing every latency limit.
const reqTimeout = 10 * time.Second

// Span context travels from the client to the in-process server in
// these headers, so handler spans join their request's trace.
const (
	hdrReq  = "X-Fmbench-Req"
	hdrSpan = "X-Fmbench-Span"
)

// httpServer is the system under test on a loopback listener.
type httpServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startHTTP serves srv on 127.0.0.1. With a tracer, the ServeHTTP of
// every traced request (one that carries span context) is recorded as a
// span named by path (serve.handler for queries, serve.ingest for
// ingest).
func startHTTP(srv *serve.Server, tr *tracer) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(hdrReq) == "" { // an untraced request
				inner.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			inner.ServeHTTP(w, r)
			req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
			name := "serve.handler"
			if r.URL.Path == "/v1/ingest" {
				name = "serve.ingest"
			}
			tr.add(parent, req, name, start, time.Now())
		})
	}
	s := &httpServer{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: reqTimeout, IdleTimeout: time.Minute},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, then drains and closes the
// serving layer (which closes its DB).
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// stopServer stops s at the end of a run. A failed shutdown (the live
// server's final snapshot save, the DB close) is a failed operation.
func (r *run) stopServer(s *httpServer) {
	if err := s.stop(); err != nil {
		r.ops.fail("server shutdown: " + err.Error())
		return
	}
	r.ops.ok()
}

// shutdown drains and closes a server that never got a listener.
func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// conn is one client connection: an http.Client whose transport never
// opens a second connection.
type conn struct{ c *http.Client }

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			TLSNextProto:        map[string]func(string, *tls.Conn) http.RoundTripper{},
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends body and reads the whole response. wrote, when non-nil,
// receives the time the request was fully written.
func (c *conn) post(url string, body []byte, req, parent int64, wrote *time.Time) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if wrote != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
		hr = hr.WithContext(httptrace.WithClientTrace(hr.Context(), &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { *wrote = time.Now() },
		}))
	}
	resp, err := c.c.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return out, nil
}

// loopStats summarizes one open-loop phase.
type loopStats struct {
	lat      []float64 // ms from due time to response read; failures = reqTimeout
	connWait []float64 // ms from due time to request written (traced only)
	lateMax  float64   // ms the generator dispatched behind schedule, worst case
	backlog  int       // requests due but not yet started when the schedule ended
	failed   int
	errs     map[string]int // failure reason -> count
}

// account adds the phase's operations to o.
func (l *loopStats) account(o *ops) {
	for i := len(l.lat) - l.failed; i > 0; i-- {
		o.ok()
	}
	for reason, n := range l.errs {
		for ; n > 0; n-- {
			o.fail(reason)
		}
	}
}

func (l *loopStats) p(q float64) float64 { return quantile(append([]float64(nil), l.lat...), q) }

// windowedQuantile splits xs (in schedule order) into equal windows and
// returns the median of the windows' q-quantiles, so a burst of stolen
// CPU on the shared host moves one window, not the figure.
func windowedQuantile(xs []float64, q float64, windows int) float64 {
	var per []float64
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		if hi > lo {
			per = append(per, quantile(append([]float64(nil), xs[lo:hi]...), q))
		}
	}
	return median(per)
}

// openLoop offers requests at a constant rate for dur over conns (one
// worker per connection) and times each from its due time, so a stall
// also charges the requests queued behind it. do performs request i on
// a connection and verifies the answer; a nil tracer disables spans.
func openLoop(rate float64, dur time.Duration, conns []*conn, tr *tracer,
	do func(c *conn, i int, req, span int64, wrote *time.Time) error) *loopStats {
	n := int(rate * dur.Seconds())
	st := &loopStats{lat: make([]float64, n), connWait: make([]float64, 0, n), errs: map[string]int{}}
	due := make([]time.Time, n)
	// Sized to every send of the phase: the dispatcher never blocks, so
	// its lateness measures the generator, not the workers.
	queue := make(chan int, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for i := range due {
		due[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	deadline := start.Add(dur + reqTimeout)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				if time.Now().After(deadline) {
					mu.Lock()
					st.lat[i] = ms(reqTimeout)
					st.failed++
					st.errs["unanswered: backlog past the request timeout"]++
					mu.Unlock()
					continue
				}
				req := int64(i + 1)
				root := tr.newID()
				var wrote time.Time
				var wp *time.Time
				if tr != nil {
					wp = &wrote
				}
				err := do(c, i, req, root, wp)
				end := time.Now()
				tr.record(root, 0, req, "request", due[i], end)
				mu.Lock()
				if err != nil {
					st.lat[i] = ms(reqTimeout)
					st.failed++
					st.errs[err.Error()]++
				} else {
					st.lat[i] = ms(end.Sub(due[i]))
				}
				if tr != nil && !wrote.IsZero() {
					st.connWait = append(st.connWait, ms(wrote.Sub(due[i])))
				}
				mu.Unlock()
				if tr != nil && !wrote.IsZero() {
					tr.add(root, req, "gen.conn_wait", due[i], wrote)
				}
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		st.lateMax = math.Max(st.lateMax, ms(time.Since(due[i])))
		queue <- i
	}
	st.backlog = len(queue)
	close(queue)
	wg.Wait()
	return st
}
