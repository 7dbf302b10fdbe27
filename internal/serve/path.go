package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// cacheable is one request for a content-addressed document, after its
// handler parsed and normalized it: everything serveCached needs to answer
// it through the shared read path.
type cacheable struct {
	addr string
	// compute produces the body on a miss. emit, when non-nil, delivers one
	// stream event without blocking; it is non-nil only when a streaming
	// client leads the flight.
	compute func(emit func(event string, data any)) ([]byte, error)
	// forward is the request as the owning replica receives it; nil means
	// the address is never routed.
	forward *upstream
	// write writes a finished body: writeBody, or writeNegotiated for
	// profile documents.
	write func(w http.ResponseWriter, r *http.Request, body []byte, disposition string)
	// stream is the client's event stream; nil answers with a plain body.
	stream *streamer
	// accepted, when non-nil, is the first event a stream that misses the
	// LRU emits.
	accepted any
}

// upstream is a request forwarded verbatim to the owning replica.
type upstream struct {
	method, uri string
	body        []byte
}

// serveCached answers a cacheable request through the read path the
// package doc describes. A streamed request runs where it landed: live
// events cannot cross a proxy hop.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, c cacheable) {
	if body, ok := s.cache.get(c.addr); ok {
		s.hits.Add(1)
		if c.stream != nil {
			c.stream.event("result", json.RawMessage(body))
			return
		}
		c.write(w, r, body, "hit")
		return
	}
	if c.stream != nil {
		s.streamFlight(r.Context(), c)
		return
	}
	if c.forward != nil {
		if owner, ok := s.routeOwner(r, c.addr); ok {
			body, disposition, err := s.flight(r.Context(), c.addr, func() ([]byte, string, error) {
				return s.proxy(owner, c.addr, *c.forward)
			})
			if err == nil {
				w.Header().Set(replicaHeader, owner)
				c.write(w, r, body, disposition)
				return
			}
			// The owner is dead or draining: availability beats strict
			// ownership, so this replica computes locally.
			s.peerFallbacks.Add(1)
		}
	}
	body, disposition, err := s.localFlight(r.Context(), c.addr, func() ([]byte, error) { return c.compute(nil) })
	if err != nil {
		writeError(w, err)
		return
	}
	c.write(w, r, body, disposition)
}

// streamFlight runs a streaming request's local flight, bridging the
// events its compute emits to the client and ending with the result (or
// error) event. Only the flight leader's compute gets emit: a client that
// joins someone else's run receives keep-alives and then the shared
// result. The flight runs detached under the server's lifetime, so the
// cache, dedup and disconnect semantics are those of a plain request.
func (s *Server) streamFlight(ctx context.Context, c cacheable) {
	st := c.stream
	if c.accepted != nil {
		st.event("accepted", c.accepted)
	}
	type event struct {
		name string
		data any
	}
	events := make(chan event, 8)
	emit := func(name string, data any) {
		select {
		case events <- event{name, data}:
		default: // this handler may be gone; never block the computation
		}
	}
	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		body, _, err := s.localFlight(ctx, c.addr, func() ([]byte, error) { return c.compute(emit) })
		done <- outcome{body, err}
	}()
	for {
		select {
		case ev := <-events:
			st.event(ev.name, ev.data)
		case out := <-done:
			// Drain events emitted before the flight finished, so the
			// stream always shows the last one before the result.
			for drained := false; !drained; {
				select {
				case ev := <-events:
					st.event(ev.name, ev.data)
				default:
					drained = true
				}
			}
			if out.err != nil {
				st.event("error", map[string]any{"error": out.err.Error(), "status": statusFor(out.err)})
				return
			}
			st.event("result", json.RawMessage(out.body))
			return
		case <-time.After(15 * time.Second):
			// Keep-alive for proxies while a long computation runs.
			st.comment("running")
		}
	}
}

// flight runs fn through the singleflight layer: exactly one concurrent
// execution per address, detached from any one waiter. It returns fn's
// disposition to the request that launched it and "dedup" to every request
// that joined it.
func (s *Server) flight(ctx context.Context, addr string, fn func() ([]byte, string, error)) ([]byte, string, error) {
	var disposition string
	body, err, leader := s.flights.do(ctx, addr, func() ([]byte, error) {
		body, d, err := fn()
		// Read by the leader only after the flight completes: the
		// completion channel orders this write before that read.
		disposition = d
		return body, err
	})
	switch {
	case err != nil:
		return nil, "", err
	case !leader:
		s.dedups.Add(1)
		return body, "dedup", nil
	}
	return body, disposition, nil
}

// localFlight produces addr's body on this replica: one flight over the
// in-flight read path.
func (s *Server) localFlight(ctx context.Context, addr string, run func() ([]byte, error)) ([]byte, string, error) {
	return s.flight(ctx, addr, func() ([]byte, string, error) { return s.readThrough(addr, run) })
}

// readThrough is the in-flight read path: the LRU ("hit": a request that
// lost the race to a just-finished flight must not recompute), the disk
// store ("disk"), the peers' stores ("peer"), then run ("miss"). A miss
// counts a launched computation, never a joined one. A computed body lands
// in the LRU and the store, so it survives a restart.
func (s *Server) readThrough(addr string, run func() ([]byte, error)) ([]byte, string, error) {
	if body, disposition, ok := s.stored(addr); ok {
		if disposition == "hit" {
			s.hits.Add(1)
		}
		return body, disposition, nil
	}
	if body, ok := s.peerObject(addr); ok {
		return body, "peer", nil
	}
	s.misses.Add(1)
	body, err := run()
	if err == nil {
		s.cache.put(addr, body)
		s.persist(addr, body)
	}
	return body, "miss", err
}

// stored returns a body this replica already holds: from the LRU ("hit")
// or from the disk store ("disk"), promoting a disk hit into the LRU.
func (s *Server) stored(addr string) ([]byte, string, bool) {
	if body, ok := s.cache.get(addr); ok {
		return body, "hit", true
	}
	if s.store != nil {
		if body, ok := s.store.Get(addr); ok {
			s.cache.put(addr, body)
			return body, "disk", true
		}
	}
	return nil, "", false
}

// persist writes a finished body through to the disk store, best-effort:
// persistence failing must not fail the request the body answers.
func (s *Server) persist(addr string, body []byte) {
	if s.store == nil {
		return
	}
	s.store.Put(addr, body)
}

// proxy forwards a request to the owning replica; it runs inside a flight,
// so a burst of identical requests on a non-owner costs one upstream call,
// and that call collapses with any concurrent local flight for the same
// address. The LRU is re-checked first ("hit"), as in readThrough. The
// upstream request runs under the server's lifetime, detached from any one
// client, and its body lands in the local LRU so repeats on this replica
// never leave the process. Any upstream failure (network error, non-200)
// is returned for the caller to fall back on local computation.
func (s *Server) proxy(owner, addr string, up upstream) ([]byte, string, error) {
	if b, ok := s.cache.get(addr); ok {
		s.hits.Add(1)
		return b, "hit", nil
	}
	var rd io.Reader
	if up.body != nil {
		rd = bytes.NewReader(up.body)
	}
	req, err := http.NewRequestWithContext(s.ctx, up.method, owner+up.uri, rd)
	if err != nil {
		return nil, "", fmt.Errorf("peer %s: %w", owner, err)
	}
	req.Header.Set(routedHeader, "1")
	if up.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.peers.client.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("peer %s: %w", owner, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, "", fmt.Errorf("peer %s: %w", owner, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("peer %s: status %d: %s", owner, resp.StatusCode, bytes.TrimSpace(b))
	}
	b = bytes.TrimSuffix(b, []byte("\n"))
	s.peerProxied.Add(1)
	s.cache.put(addr, b)
	if d := resp.Header.Get("X-DProf-Cache"); d != "" {
		return b, "proxy:" + d, nil
	}
	return b, "proxy", nil
}
