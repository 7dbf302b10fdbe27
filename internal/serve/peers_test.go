package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// replica is one fleet member under test: the Server plus its listener.
type replica struct {
	s  *Server
	ts *httptest.Server
}

// newRing builds an n-replica fleet over httptest listeners, each with its
// own store directory when withStore is set, and wires the consistent-hash
// ring once every URL is known.
func newRing(t *testing.T, n int, withStore bool) []replica {
	t.Helper()
	reps := make([]replica, n)
	urls := make([]string, n)
	for i := range reps {
		cfg := Config{Workers: 2}
		if withStore {
			cfg.StoreDir = t.TempDir()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			s.Shutdown()
			ts.Close()
		})
		reps[i] = replica{s: s, ts: ts}
		urls[i] = ts.URL
	}
	for _, r := range reps {
		if err := r.s.SetPeers(r.ts.URL, urls); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// seedBody builds the standard cheap request parameterized by seed, so
// tests can hunt for an address owned by a chosen replica.
func seedBody(seed int) string {
	return fmt.Sprintf(`{"workload":"falseshare","options":{"seed":"%d"},"views":["dataprofile"],"measure_ms":1,"quick":true}`, seed)
}

// addressOf normalizes a request body through a replica and returns its
// content address (normalization is deterministic, so any replica works).
func addressOf(t *testing.T, s *Server, seed int) string {
	t.Helper()
	req := ProfileRequest{
		Workload:  "falseshare",
		Options:   map[string]string{"seed": fmt.Sprint(seed)},
		Views:     []string{"dataprofile"},
		MeasureMs: 1,
	}
	quick := true
	req.Quick = &quick
	k, err := s.normalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	return k.address()
}

// seedOwnedBy hunts for a seed whose content address the given replica
// owns on the ring.
func seedOwnedBy(t *testing.T, reps []replica, owner int) int {
	t.Helper()
	for seed := 1; seed < 200; seed++ {
		addr := addressOf(t, reps[0].s, seed)
		if reps[0].s.peers.owner(addr) == reps[owner].ts.URL {
			return seed
		}
	}
	t.Fatal("no seed found owned by replica")
	return 0
}

func fleetSimulations(reps []replica) int64 {
	var n int64
	for _, r := range reps {
		n += r.s.Simulations()
	}
	return n
}

func TestRingSpreadsOwnership(t *testing.T) {
	reps := newRing(t, 3, false)
	owned := map[string]int{}
	for seed := 0; seed < 60; seed++ {
		owned[reps[0].s.peers.owner(addressOf(t, reps[0].s, seed))]++
	}
	for _, r := range reps {
		if owned[r.ts.URL] == 0 {
			t.Errorf("replica %s owns none of 60 addresses: %v", r.ts.URL, owned)
		}
	}
	// Every replica must agree on the ownership map.
	for seed := 0; seed < 10; seed++ {
		addr := addressOf(t, reps[0].s, seed)
		want := reps[0].s.peers.owner(addr)
		for _, r := range reps[1:] {
			if got := r.s.peers.owner(addr); got != want {
				t.Fatalf("ring disagreement for %s: %s vs %s", addr, got, want)
			}
		}
	}
}

// TestFleetWideSingleflight is the distributed-dedup acceptance test: N
// identical concurrent requests spread across all three replicas produce
// exactly one simulation fleet-wide and byte-identical responses.
func TestFleetWideSingleflight(t *testing.T) {
	reps := newRing(t, 3, false)
	body := seedBody(1)
	const perReplica = 3
	n := perReplica * len(reps)
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts := reps[i%len(reps)].ts
			resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d\nbody: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if got := fleetSimulations(reps); got != 1 {
		t.Errorf("fleet simulations = %d, want 1 for %d identical concurrent requests across %d replicas",
			got, n, len(reps))
	}
}

// TestRoutedVsDirectBytes: for every routed endpoint kind, the same
// request through a non-owning replica and directly to the owner answers
// with identical wire bytes, only the owner does the work, and the proxied
// copy warms the non-owner's LRU.
func TestRoutedVsDirectBytes(t *testing.T) {
	capture, err := os.ReadFile(filepath.Join("..", "perfin", "testdata", "mem.perf.data"))
	if err != nil {
		t.Fatal(err)
	}
	ingestAddr := func(t *testing.T) string {
		k, err := normalizeIngest(httptest.NewRequest(http.MethodPost, "/ingest", nil), capture)
		if err != nil {
			t.Fatal(err)
		}
		return k.address()
	}
	tests := []struct {
		name   string
		method string
		uri    string
		body   []byte
		addr   func(t *testing.T, s *Server) string
	}{
		{"profile", http.MethodPost, "/profile", []byte(seedBody(1)),
			func(t *testing.T, s *Server) string { return addressOf(t, s, 1) }},
		{"ingest", http.MethodPost, "/ingest", capture,
			func(t *testing.T, _ *Server) string { return ingestAddr(t) }},
		{"experiment", http.MethodGet, "/experiments/falseshare?quick=1", nil,
			func(*testing.T, *Server) string { return "experiment/falseshare/quick=true" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reps := newRing(t, 3, false)
			addr := tt.addr(t, reps[0].s)
			var owner, nonOwner replica
			for i, r := range reps {
				if r.ts.URL == reps[0].s.peers.owner(addr) {
					owner, nonOwner = r, reps[(i+1)%len(reps)]
				}
			}
			// work counts what only the owner may do: simulate or parse.
			work := func(r replica) int64 {
				r.s.ingestMu.Lock()
				defer r.s.ingestMu.Unlock()
				return r.s.Simulations() + int64(r.s.ingestStats.FilesParsed)
			}
			send := func(ts *httptest.Server) (*http.Response, []byte) {
				t.Helper()
				var rd io.Reader
				if tt.body != nil {
					rd = bytes.NewReader(tt.body)
				}
				req, err := http.NewRequest(tt.method, ts.URL+tt.uri, rd)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				raw, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != 200 {
					t.Fatalf("status %d: %s", resp.StatusCode, raw)
				}
				return resp, raw
			}

			respRouted, routed := send(nonOwner.ts)
			if got := respRouted.Header.Get(replicaHeader); got != owner.ts.URL {
				t.Errorf("routed response replica header = %q, want %q", got, owner.ts.URL)
			}
			if d := respRouted.Header.Get("X-DProf-Cache"); !strings.HasPrefix(d, "proxy:") {
				t.Errorf("routed disposition = %q, want proxy:*", d)
			}
			var fleet int64
			for _, r := range reps {
				fleet += work(r)
			}
			if work(owner) != 1 || fleet != 1 {
				t.Errorf("work owner=%d fleet=%d, want 1/1", work(owner), fleet)
			}
			if nonOwner.s.peerProxied.Load() != 1 {
				t.Errorf("proxied = %d, want 1", nonOwner.s.peerProxied.Load())
			}

			respDirect, direct := send(owner.ts)
			if !bytes.Equal(routed, direct) {
				t.Error("routed and direct responses differ")
			}
			if d := respDirect.Header.Get("X-DProf-Cache"); d != "hit" {
				t.Errorf("direct repeat disposition = %q, want hit", d)
			}

			// The proxied body landed in the non-owner's LRU: a repeat there
			// is a local hit, byte-identical, no second proxy hop.
			respLocal, local := send(nonOwner.ts)
			if d := respLocal.Header.Get("X-DProf-Cache"); d != "hit" {
				t.Errorf("non-owner repeat disposition = %q, want hit", d)
			}
			if !bytes.Equal(routed, local) {
				t.Error("non-owner repeat differs from routed response")
			}
			if nonOwner.s.peerProxied.Load() != 1 {
				t.Error("non-owner repeat proxied again instead of serving locally")
			}
		})
	}
}

// TestPeerDeathFallsBackToLocalSimulate: when the owning replica is gone,
// a non-owner serves the request by simulating locally instead of failing.
func TestPeerDeathFallsBackToLocalSimulate(t *testing.T) {
	reps := newRing(t, 3, false)
	seed := seedOwnedBy(t, reps, 1)
	reps[1].ts.Close() // the owner dies

	resp, err := http.Post(reps[0].ts.URL+"/profile", "application/json", strings.NewReader(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d with dead owner: %s", resp.StatusCode, raw)
	}
	if n := reps[0].s.Simulations(); n != 1 {
		t.Errorf("local simulations = %d, want 1 (fallback)", n)
	}
	if n := reps[0].s.peerFallbacks.Load(); n != 1 {
		t.Errorf("fallbacks = %d, want 1", n)
	}
}

// TestPeerFetchStoredDocument: an owner whose disk is cold adopts the
// stored document from a peer's store instead of re-simulating — the
// ring-membership-changed path.
func TestPeerFetchStoredDocument(t *testing.T) {
	reps := newRing(t, 2, true)
	seed := seedOwnedBy(t, reps, 1)
	holder, owner := reps[0], reps[1]

	// Force the non-owner to produce and store the document locally: a
	// routed request never re-routes, which is exactly the situation a
	// replica that owned this address under an older ring was in.
	req, err := http.NewRequest(http.MethodPost, holder.ts.URL+"/profile", strings.NewReader(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(routedHeader, "1")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("holder status %d: %s", resp.StatusCode, want)
	}
	if holder.s.Simulations() != 1 {
		t.Fatalf("holder simulations = %d, want 1", holder.s.Simulations())
	}

	// The owner, LRU and disk cold, must peer-fetch instead of simulating.
	resp2, err := http.Post(owner.ts.URL+"/profile", "application/json", strings.NewReader(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != 200 {
		t.Fatalf("owner status %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Error("peer-fetched document differs from the original")
	}
	if d := resp2.Header.Get("X-DProf-Cache"); d != "peer" {
		t.Errorf("disposition = %q, want peer", d)
	}
	if n := owner.s.Simulations(); n != 0 {
		t.Errorf("owner simulations = %d, want 0 (peer fetch)", n)
	}
	if n := owner.s.peerFetches.Load(); n != 1 {
		t.Errorf("peer fetches = %d, want 1", n)
	}
	if n := holder.s.objectsServed.Load(); n != 1 {
		t.Errorf("holder objects served = %d, want 1", n)
	}
	// The adopted document persisted: the owner's own store now has it.
	if owner.s.store.Len() != 1 {
		t.Errorf("owner store entries = %d, want 1", owner.s.store.Len())
	}
}

// TestObjectEndpoint: /object serves stored documents without ever
// simulating, and misses are 404.
func TestObjectEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	resp, err := http.Get(ts.URL + "/object/profile/feedfacedeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("cold /object status = %d, want 404", resp.StatusCode)
	}

	_, want := postProfile(t, ts, quickProfile)
	addr := addressOf(t, s, 0)
	resp2, err := http.Get(ts.URL + "/object/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm /object status = %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Error("/object bytes differ from the POST /profile response")
	}
	if n := s.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1 (object never simulates)", n)
	}
}

func TestSetPeersRejectsBadReplicas(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, bad := range []string{"", "not-a-url", "ftp://x", "http://"} {
		if err := s.SetPeers("http://a:1", []string{bad}); err == nil {
			t.Errorf("SetPeers accepted replica %q", bad)
		}
		if err := s.SetPeers(bad, []string{"http://a:1"}); err == nil {
			t.Errorf("SetPeers accepted self %q", bad)
		}
	}
}
