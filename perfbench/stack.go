package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"time"

	"pimmine/internal/netserve"
	"pimmine/internal/vec"
)

// stack is one served engine: a netserve.Server on a loopback listener
// and an h2c client that multiplexes every request of the run over one
// connection.
type stack struct {
	srv    *netserve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{} // closed when Serve returns
	eng    engines
}

// startStack listens on a fresh loopback port and returns once the
// server answers /healthz.
func startStack(opts netserve.Options, eng engines) (*stack, error) {
	srv, err := netserve.New(opts)
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	st := &stack{
		srv:    srv,
		hs:     srv.NewHTTPServer(""),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{Protocols: p}, Timeout: 30 * time.Second},
		served: make(chan struct{}),
		eng:    eng,
	}
	go func() {
		_ = st.hs.Serve(ln)
		close(st.served)
	}()
	resp, err := st.client.Get(st.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = st.stop()
		return nil, err
	}
	return st, nil
}

// stop drains the server (in-flight requests finish, then the engine
// closes, flushing a durable engine's log), closes the listener and its
// connections, and waits for Serve to return.
func (st *stack) stop() error {
	err := st.srv.Drain()
	st.client.CloseIdleConnections()
	_ = st.hs.Close()
	<-st.served
	return err
}

// post sends one request and returns its status and body.
func (st *stack) post(ctx context.Context, path, tenant string, body []byte) (int, []byte, error) {
	req, err := newPost(ctx, st.url+path, body)
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// newPost builds a JSON POST request.
func newPost(ctx context.Context, url string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// search sends one /v1/search body and decodes a 200 answer; a non-200
// answer returns a nil response and no error (the caller counts it).
func (st *stack) search(ctx context.Context, tenant string, body []byte) (*netserve.QueryResponse, int, int, error) {
	status, out, err := st.post(ctx, "/v1/search", tenant, body)
	if err != nil || status != http.StatusOK {
		return nil, status, len(out), err
	}
	var resp netserve.QueryResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, status, len(out), err
	}
	return &resp, status, len(out), nil
}

// searchBatch sends one /v1/search/batch body and decodes its NDJSON
// lines in order.
func (st *stack) searchBatch(ctx context.Context, tenant string, body []byte) ([]netserve.BatchLine, int, int, error) {
	status, out, err := st.post(ctx, "/v1/search/batch", tenant, body)
	if err != nil || status != http.StatusOK {
		return nil, status, len(out), err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var lines []netserve.BatchLine
	for dec.More() {
		var l netserve.BatchLine
		if err := dec.Decode(&l); err != nil {
			return nil, status, len(out), err
		}
		lines = append(lines, l)
	}
	return lines, status, len(out), nil
}

// sameAnswer is the exactness gate: a served answer must match the
// sequential scan index for index and Float64bits for Float64bits.
func sameAnswer(got []netserve.NeighborWire, want []vec.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// durMs converts durations to milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianSec is the median of ds in seconds.
func medianSec(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
