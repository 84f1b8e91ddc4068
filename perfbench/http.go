package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"copernicus/internal/cluster"
	"copernicus/internal/core"
	"copernicus/internal/service"
)

// server is one service behind a net/http.Server on a loopback listener
// in this process.
type server struct {
	svc  *service.Server
	hs   *http.Server
	url  string
	addr string
	done chan struct{}
}

func startServer(svc *service.Server) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		hs:   &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.url = "http://" + s.addr
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops compute, drains connections and waits for the server's
// goroutine to exit.
func (s *server) close() {
	s.svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close()
	}
	<-s.done
}

// newClient returns a client that opens at most loadWorkers connections.
func newClient() *http.Client {
	n := loadWorkers()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// do sends req and returns the status and the whole body.
func do(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// serveDirect runs req through h into a recorder: the handler's own
// time, without the network.
func serveDirect(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// stats is the subset of GET /v1/stats the benchmark reads.
type stats struct {
	EnginePlans core.PlanStats     `json:"engine_plans"`
	SweepCache  service.CacheStats `json:"sweep_cache"`
	Cluster     *cluster.Stats     `json:"cluster"`
}

// readStats fetches /v1/stats straight from the handler.
func readStats(svc *service.Server) (stats, error) {
	rec := serveDirect(svc.Handler(), httptest.NewRequest("GET", "/v1/stats", nil))
	var st stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", rec.Code)
	}
	err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&st)
	return st, err
}
