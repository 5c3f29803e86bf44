package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/serve"
)

// server is an in-process serve.Server with default Config on a loopback
// listener, and one single-connection HTTP client per load-generator
// connection.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	served  chan error
	clients []*http.Client
}

func startServer(conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < conns; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return s, nil
}

// stop closes the connections, drains the server and waits for its
// goroutines to end.
func (s *server) stop() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (s *server) post(conn int, body []byte) (int, []byte, error) {
	resp, err := s.clients[conn].Post(s.url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (s *server) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := s.clients[0].Get(s.url + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// sample is one request as the load generator saw it. Times are offsets
// from the start of the run: due is when the request should have gone
// out, sent when it did, done when its response was read.
type sample struct {
	idx             int
	spec            reqSpec
	id              string
	due, sent, done time.Duration
	fail            string // "" when the response passed every check
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) service() time.Duration { return s.done - s.sent }

type loadgen struct {
	w    *workload
	seed int64
	enc  *encoder
	chk  *checker
}

func (g *loadgen) send(s *server, conn int, smp *sample, start time.Time) {
	smp.id = g.w.id(smp.spec)
	body := g.enc.body(smp.spec)
	smp.sent = time.Since(start)
	status, resp, err := s.post(conn, body)
	smp.done = time.Since(start)
	if err != nil {
		smp.fail = "transport error"
		return
	}
	smp.fail = g.chk.check(smp.id, status, resp)
}

// warm sends every spec once, spread over the connections, and fails on
// the first bad response.
func (g *loadgen) warm(s *server, specs []reqSpec) error {
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				smp := sample{spec: specs[i]}
				g.send(s, c, &smp, start)
				if smp.fail != "" {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm-up %s: %s", smp.id, smp.fail)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return firstErr
}

// closedLoop runs one client per connection, each sending its next
// request when the previous reply arrives. Issuing stops at the whole
// rotation nearest the deadline, once the fixed set and enough samples
// for a tail percentile have gone out.
func (g *loadgen) closedLoop(s *server, dur time.Duration) []sample {
	minIssued := max(g.w.Fixed, 2*minBeyond)
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		out     []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ready := time.Duration(0)
			for {
				mu.Lock()
				i := next
				if k := i / len(g.w.Rotation); !stopped && i%len(g.w.Rotation) == 0 && i >= minIssued {
					// Another rotation would end further past the
					// deadline than this point falls short of it.
					el := time.Since(start)
					stopped = el+el/time.Duration(2*k) >= dur
				}
				if stopped {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				// A closed-loop client is due to send as soon as its
				// previous reply arrives.
				smp := sample{idx: i, spec: g.w.closedSpec(g.seed, i), due: ready}
				g.send(s, c, &smp, start)
				ready = smp.done
				mu.Lock()
				out = append(out, smp)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}

// openLoop sends plan[i] when it falls due at i/Rate seconds, on whichever
// connection is free (a pair goes out on every connection at once),
// regardless of how earlier requests fare.
func (g *loadgen) openLoop(s *server, plan []reqSpec) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	// Any free connection takes a single request from shared; a pair
	// goes to every connection's own channel.
	shared := make(chan sample)
	own := make([]chan sample, len(s.clients))
	for c := range own {
		own[c] = make(chan sample)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				var smp sample
				var ok bool
				select {
				case smp, ok = <-shared:
				case smp, ok = <-own[c]:
				}
				if !ok {
					return // the sends are unbuffered, so none is pending
				}
				g.send(s, c, &smp, start)
				mu.Lock()
				out = append(out, smp)
				mu.Unlock()
			}
		}(c)
	}
	for i, spec := range plan {
		due := time.Duration(float64(i) / g.w.Rate * float64(time.Second))
		time.Sleep(time.Until(start.Add(due)))
		smp := sample{idx: i, spec: spec, due: due}
		if !spec.Pair {
			shared <- smp
			continue
		}
		for _, ch := range own {
			ch <- smp
		}
	}
	close(shared)
	for _, ch := range own {
		close(ch)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool {
		if out[a].idx != out[b].idx {
			return out[a].idx < out[b].idx
		}
		return out[a].sent < out[b].sent
	})
	return out
}
