package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"dprof/internal/core"
)

// DiffRequest is the POST /diff body: two profile requests whose data
// profiles are compared A (baseline) against B (suspect). Each side is a
// full ProfileRequest — same validation, same defaults, same option
// canonicalization as POST /profile — and each side's session is computed
// through the same content-addressed cache and singleflight layer, so a
// side that was already profiled is never simulated again.
type DiffRequest struct {
	A ProfileRequest `json:"a"`
	B ProfileRequest `json:"b"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req DiffRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, &BodyError{Err: err})
		return
	}
	ka, err := s.normalize(&req.A)
	if err != nil {
		writeError(w, fmt.Errorf("profile a: %w", err))
		return
	}
	kb, err := s.normalize(&req.B)
	if err != nil {
		writeError(w, fmt.Errorf("profile b: %w", err))
		return
	}
	// The diff runs on the data profile view; make sure both sides render
	// it (in canonical view order, so the side addresses stay canonical).
	ensureDataProfile(&ka)
	ensureDataProfile(&kb)

	// A diff never streams and is never routed; its sides run through this
	// replica's local flights.
	s.serveCached(w, r, cacheable{
		addr:    "diff/" + ka.address() + "/" + kb.address(),
		compute: func(func(string, any)) ([]byte, error) { return s.runDiff(ka, kb) },
		write:   writeBody,
	})
}

// ensureDataProfile adds the dataprofile view to a normalized key that
// excluded it, preserving canonical (KnownViews) order.
func ensureDataProfile(k *profileKey) {
	if slices.Contains(k.Views, "dataprofile") {
		return
	}
	views := make([]string, 0, len(k.Views)+1)
	for _, v := range core.KnownViews {
		if v == "dataprofile" || slices.Contains(k.Views, v) {
			views = append(views, v)
		}
	}
	k.Views = views
}

// runDiff computes both sides (each through its own profile flight, sharing
// any concurrent or cached identical session) and diffs their exported data
// profiles. It runs inside the diff's own flight, so N identical diff
// requests cost at most two simulations total.
func (s *Server) runDiff(ka, kb profileKey) ([]byte, error) {
	bodyA, err := s.profileBody(ka)
	if err != nil {
		return nil, fmt.Errorf("profile a: %w", err)
	}
	bodyB, err := s.profileBody(kb)
	if err != nil {
		return nil, fmt.Errorf("profile b: %w", err)
	}
	// ParseDocument validates the schema version, so a document persisted by
	// a newer build fails clearly instead of being misread.
	docA, err := core.ParseDocument(bodyA)
	if err != nil {
		return nil, fmt.Errorf("profile a: %w", err)
	}
	docB, err := core.ParseDocument(bodyB)
	if err != nil {
		return nil, fmt.Errorf("profile b: %w", err)
	}
	rawA, err := docA.DataProfileExport()
	if err != nil {
		return nil, fmt.Errorf("profile a: %w", err)
	}
	rawB, err := docB.DataProfileExport()
	if err != nil {
		return nil, fmt.Errorf("profile b: %w", err)
	}
	d, err := core.DiffExports(rawA, rawB)
	if err != nil {
		return nil, err
	}
	return json.Marshal(core.NewDiffDocument(
		core.DiffSide{Workload: ka.Workload, Address: ka.address(), Summary: docA.Summary},
		core.DiffSide{Workload: kb.Workload, Address: kb.address(), Summary: docB.Summary},
		d,
	))
}

// profileBody returns the canonical document bytes for a normalized profile
// key through the local flight POST /profile uses.
func (s *Server) profileBody(k profileKey) ([]byte, error) {
	body, _, err := s.localFlight(s.ctx, k.address(), func() ([]byte, error) { return s.runProfile(k, nil) })
	return body, err
}
