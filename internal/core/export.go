package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dprof/internal/cache"
	"dprof/internal/sym"
)

// The JSON export forms of the views, for tooling built on top of DProf
// (dashboards, regression tracking). Field names are stable.

type dataProfileJSON struct {
	TotalSamples     uint64        `json:"total_samples"`
	TotalMissSamples uint64        `json:"total_miss_samples"`
	UnresolvedPct    float64       `json:"unresolved_pct"`
	Rows             []dataRowJSON `json:"rows"`
}

type dataRowJSON struct {
	Type           string  `json:"type"`
	Description    string  `json:"description"`
	WorkingSet     uint64  `json:"working_set_bytes"`
	MissPct        float64 `json:"miss_pct"`
	Bounce         bool    `json:"bounce"`
	AvgMissLatency float64 `json:"avg_miss_latency_cycles"`
	// NUMA locality split; exported only when the profile saw cross-chip or
	// remote-node traffic (mirroring the text renderer), so single-socket
	// exports are byte-identical to the pre-topology format.
	OnChipPct     float64 `json:"onchip_pct,omitempty"`
	CrossChipPct  float64 `json:"cross_chip_pct,omitempty"`
	RemoteDRAMPct float64 `json:"remote_dram_pct,omitempty"`
}

// MarshalJSON exports the data profile.
func (dp *DataProfile) MarshalJSON() ([]byte, error) {
	out := dataProfileJSON{
		TotalSamples:     dp.TotalSamples,
		TotalMissSamples: dp.TotalMissSamples,
		UnresolvedPct:    dp.UnresolvedPct,
	}
	numa := dp.hasCrossChip()
	for _, r := range dp.Rows {
		row := dataRowJSON{
			Type:           r.Type.Name,
			Description:    r.Type.Desc,
			WorkingSet:     r.WorkingSetBytes,
			MissPct:        r.MissPct,
			Bounce:         r.Bounce,
			AvgMissLatency: r.AvgMissLatency,
		}
		if numa {
			row.OnChipPct = r.OnChipPct
			row.CrossChipPct = r.CrossChipPct
			row.RemoteDRAMPct = r.RemoteDRAMPct
		}
		out.Rows = append(out.Rows, row)
	}
	return json.Marshal(out)
}

type missClassJSON struct {
	Type            string  `json:"type"`
	MissSamples     uint64  `json:"miss_samples"`
	InvalidationPct float64 `json:"invalidation_pct"`
	TrueSharingPct  float64 `json:"true_sharing_pct"`
	FalseSharingPct float64 `json:"false_sharing_pct"`
	ConflictPct     float64 `json:"conflict_pct"`
	CapacityPct     float64 `json:"capacity_pct"`
	LocalPct        float64 `json:"local_pct"`
	OnChipPct       float64 `json:"onchip_pct,omitempty"`
	CrossChipPct    float64 `json:"cross_chip_pct,omitempty"`
	RemoteDRAMPct   float64 `json:"remote_dram_pct,omitempty"`
}

// MarshalJSON exports one miss-classification row (marshal a []MissClassRow
// for the whole view).
func (r MissClassRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(missClassJSON{
		Type:            r.Type.Name,
		MissSamples:     r.MissSamples,
		InvalidationPct: r.InvalidationPct,
		TrueSharingPct:  r.TrueSharingPct,
		FalseSharingPct: r.FalseSharingPct,
		ConflictPct:     r.ConflictPct,
		CapacityPct:     r.CapacityPct,
		LocalPct:        r.LocalPct,
		OnChipPct:       r.OnChipPct,
		CrossChipPct:    r.CrossChipPct,
		RemoteDRAMPct:   r.RemoteDRAMPct,
	})
}

type geometryJSON struct {
	LineSize uint64 `json:"line_size"`
	Sets     int    `json:"sets"`
	Ways     int    `json:"ways"`
}

type socketUsageJSON struct {
	Socket       int `json:"socket"`
	PrivateLines int `json:"private_lines"`
	L3Lines      int `json:"l3_lines"`
}

type workingSetRowJSON struct {
	Type      string   `json:"type"`
	PeakBytes uint64   `json:"peak_bytes"`
	AvgBytes  float64  `json:"avg_bytes"`
	PeakCount uint64   `json:"peak_objects"`
	AvgCount  float64  `json:"avg_objects"`
	TopPaths  []string `json:"top_paths,omitempty"`
}

type assocSetJSON struct {
	Index         int `json:"set"`
	DistinctLines int `json:"distinct_lines"`
	// ByType marshals with sorted keys (encoding/json sorts string-keyed
	// maps), so the export is byte-stable despite the map.
	ByType map[string]int `json:"by_type"`
}

type workingSetJSON struct {
	Geometry       geometryJSON        `json:"geometry"`
	Rows           []workingSetRowJSON `json:"rows"`
	MeanLines      float64             `json:"mean_lines_per_set"`
	OverloadedSets int                 `json:"overloaded_sets"`
	Overloaded     []assocSetJSON      `json:"overloaded,omitempty"`
	SampledObjects int                 `json:"sampled_objects"`
	PerSocket      []socketUsageJSON   `json:"per_socket,omitempty"`
}

// MarshalJSON exports the working-set view, including the replay geometry
// (so tooling can reconstruct the view), the overloaded associativity sets
// with their per-type line counts (the conflict suspects the text renderer
// prints), and per-socket occupancy on multi-socket machines.
func (v *WorkingSetView) MarshalJSON() ([]byte, error) {
	out := workingSetJSON{
		Geometry:       geometryJSON(v.Geometry),
		MeanLines:      v.MeanLines,
		OverloadedSets: len(v.Overloaded),
		SampledObjects: v.SampledObjects,
	}
	for _, r := range v.Rows {
		out.Rows = append(out.Rows, workingSetRowJSON{
			Type:      r.Type.Name,
			PeakBytes: r.PeakBytes,
			AvgBytes:  r.AvgBytes,
			PeakCount: r.PeakCount,
			AvgCount:  r.AvgCount,
			TopPaths:  r.TopPaths,
		})
	}
	for _, st := range v.Overloaded {
		out.Overloaded = append(out.Overloaded, assocSetJSON{
			Index:         st.Index,
			DistinctLines: st.DistinctLines,
			ByType:        st.ByType,
		})
	}
	for _, u := range v.PerSocket {
		out.PerSocket = append(out.PerSocket, socketUsageJSON(u))
	}
	return json.Marshal(out)
}

type residencyRowJSON struct {
	Type     string  `json:"type"`
	AvgLines float64 `json:"avg_lines"`
	MaxLines int     `json:"max_lines"`
}

type residencyJSON struct {
	CapacityLines int                `json:"capacity_lines"`
	Evictions     uint64             `json:"evictions"`
	ReplayedObjs  int                `json:"replayed_objects"`
	Rows          []residencyRowJSON `json:"rows"`
}

// MarshalJSON exports the §4.2 replayed cache-residency view (the second
// half of the working-set report, previously text-only).
func (v *ResidencyView) MarshalJSON() ([]byte, error) {
	out := residencyJSON{
		CapacityLines: v.CapacityLines,
		Evictions:     v.Evictions,
		ReplayedObjs:  v.ReplayedObjs,
	}
	for _, r := range v.Rows {
		out.Rows = append(out.Rows, residencyRowJSON(r))
	}
	return json.Marshal(out)
}

type pathStepJSON struct {
	Function   string             `json:"function"`
	CPUChange  bool               `json:"cpu_change"`
	OffLo      uint32             `json:"offset_lo"`
	OffHi      uint32             `json:"offset_hi"`
	Write      bool               `json:"write"`
	AvgTime    float64            `json:"avg_time_cycles"`
	AvgLatency float64            `json:"avg_latency_cycles,omitempty"`
	LevelProb  map[string]float64 `json:"hit_probability,omitempty"`
	Synthetic  bool               `json:"synthetic,omitempty"`
}

type pathTraceJSON struct {
	Type        string         `json:"type"`
	Count       uint64         `json:"count"`
	Frequency   float64        `json:"frequency"`
	AvgLifetime float64        `json:"avg_lifetime_cycles"`
	CrossCPU    bool           `json:"cross_cpu"`
	Steps       []pathStepJSON `json:"steps"`
}

// MarshalJSON exports a path trace.
func (tr *PathTrace) MarshalJSON() ([]byte, error) {
	out := pathTraceJSON{
		Type:        tr.Type.Name,
		Count:       tr.Count,
		Frequency:   tr.Frequency,
		AvgLifetime: tr.AvgLifetime,
		CrossCPU:    tr.CrossCPU,
	}
	for _, st := range tr.Steps {
		js := pathStepJSON{
			Function:  sym.Name(st.PC),
			CPUChange: st.CPUChange,
			OffLo:     st.OffLo,
			OffHi:     st.OffHi,
			Write:     st.Write,
			AvgTime:   st.AvgTime,
			Synthetic: st.Synthetic,
		}
		if st.HaveStats {
			js.AvgLatency = st.AvgLatency
			js.LevelProb = make(map[string]float64)
			for lv := 0; lv < cache.NumLevels; lv++ {
				if st.LevelProb[lv] > 0 {
					js.LevelProb[cache.Level(lv).String()] = st.LevelProb[lv]
				}
			}
		}
		out.Steps = append(out.Steps, js)
	}
	return json.Marshal(out)
}

type diffRowJSON struct {
	Type          string  `json:"type"`
	Score         float64 `json:"score"`
	MissDelta     float64 `json:"miss_pressure_delta"`
	CrossDelta    float64 `json:"cross_chip_delta"`
	WSDelta       float64 `json:"working_set_delta"`
	MissPressureA float64 `json:"miss_pressure_a"`
	MissPressureB float64 `json:"miss_pressure_b"`
	CrossChipA    float64 `json:"cross_chip_a,omitempty"`
	CrossChipB    float64 `json:"cross_chip_b,omitempty"`
	WSBytesA      uint64  `json:"working_set_bytes_a"`
	WSBytesB      uint64  `json:"working_set_bytes_b"`
	WSGrowth      float64 `json:"working_set_growth"`
	MissPctA      float64 `json:"miss_pct_a"`
	MissPctB      float64 `json:"miss_pct_b"`
	LatencyA      float64 `json:"avg_miss_latency_a,omitempty"`
	LatencyB      float64 `json:"avg_miss_latency_b,omitempty"`
}

// MarshalJSON exports the ranked profile diff. Rows keep their rank order,
// so tooling reads rows[0] as the top suspect.
func (d *ProfileDiff) MarshalJSON() ([]byte, error) {
	rows := []diffRowJSON{}
	for _, r := range d.Rows {
		rows = append(rows, diffRowJSON{
			Type:          r.Type,
			Score:         r.Score,
			MissDelta:     r.MissDelta,
			CrossDelta:    r.CrossDelta,
			WSDelta:       r.WSDelta,
			MissPressureA: r.MissPressureA,
			MissPressureB: r.MissPressureB,
			CrossChipA:    r.CrossChipA,
			CrossChipB:    r.CrossChipB,
			WSBytesA:      r.WSBytesA,
			WSBytesB:      r.WSBytesB,
			WSGrowth:      r.WSGrowth,
			MissPctA:      r.MissPctA,
			MissPctB:      r.MissPctB,
			LatencyA:      r.LatencyA,
			LatencyB:      r.LatencyB,
		})
	}
	return json.Marshal(struct {
		Rows []diffRowJSON `json:"rows"`
	}{rows})
}

type windowSnapshotJSON struct {
	Index      int                        `json:"index"`
	StartCycle uint64                     `json:"start_cycle"`
	EndCycle   uint64                     `json:"end_cycle"`
	Final      bool                       `json:"final,omitempty"`
	Samples    uint64                     `json:"samples"`
	Misses     uint64                     `json:"misses"`
	Views      map[string]json.RawMessage `json:"views,omitempty"`
}

// MarshalJSON exports a window snapshot: its interval, the window's sample
// delta counts, and the per-boundary view exports. The raw delta table is
// internal merge substrate and is not serialized.
func (s *WindowSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(windowSnapshotJSON{
		Index:      s.Index,
		StartCycle: s.Start,
		EndCycle:   s.End,
		Final:      s.Final,
		Samples:    s.Samples(),
		Misses:     s.Misses(),
		Views:      s.Views,
	})
}

// UnmarshalJSON restores a serialized snapshot — everything except the
// process-local delta table (Delta stays nil), so saved profile documents
// with windows round-trip and re-encode faithfully.
func (s *WindowSnapshot) UnmarshalJSON(raw []byte) error {
	var w windowSnapshotJSON
	if err := json.Unmarshal(raw, &w); err != nil {
		return err
	}
	*s = WindowSnapshot{
		Index:   w.Index,
		Start:   w.StartCycle,
		End:     w.EndCycle,
		Final:   w.Final,
		Views:   w.Views,
		samples: w.Samples,
		misses:  w.Misses,
	}
	return nil
}

// ProfileDocument is the canonical serialized form of one profiling
// session: the same bytes whether produced by dprofd's POST /profile or
// cmd/dprof -json, which is what makes saved profiles diffable against
// either. Every map marshals with sorted keys and every view export is
// deterministic, so equal sessions produce byte-identical documents.
type ProfileDocument struct {
	// SchemaVersion and Provenance are stamped at the writing surfaces
	// (Stamp); both are omitted when zero, so documents from older builds —
	// and the golden-locked simulator documents — keep their exact bytes.
	SchemaVersion int         `json:"schema_version,omitempty"`
	Provenance    *Provenance `json:"provenance,omitempty"`

	Workload string                     `json:"workload"`
	Options  map[string]string          `json:"options"`
	Quick    bool                       `json:"quick"`
	Topology string                     `json:"topology"`
	Target   string                     `json:"target,omitempty"`
	Summary  string                     `json:"summary"`
	Values   map[string]float64         `json:"values"`
	Views    map[string]json.RawMessage `json:"views"`
	// Windows carries the boundary snapshots of windowed sessions (absent
	// on default single-window runs, keeping those documents byte-identical
	// to the pre-windowing format).
	Windows []*WindowSnapshot `json:"windows,omitempty"`
}

// BuildProfileDocument renders a finished session as its canonical
// document. The caller supplies the registry-level identity (workload name,
// canonical options, fidelity); the session supplies everything else. views
// lists the view names to export, in canonical order.
func BuildProfileDocument(s *Session, views []string, workloadName string, options map[string]string, quick bool) (*ProfileDocument, error) {
	doc, err := BuildSourceDocument(s.Profiler(), views, workloadName, options, s.Target())
	if err != nil {
		return nil, err
	}
	doc.Quick = quick
	doc.Topology = s.Topology().String()
	doc.Summary = s.Result().Summary
	doc.Values = s.Result().Values
	doc.Windows = s.Windows()
	return doc, nil
}

// BuildSourceDocument renders any profile source — a simulator profiler or
// an ingested perf.data capture — as a profile document carrying the
// requested views. Session-only fields (summary, result values, windows)
// stay zero; callers with a session use BuildProfileDocument, which fills
// them on top.
func BuildSourceDocument(src ProfileSource, views []string, workloadName string, options map[string]string, target *TypeDesc) (*ProfileDocument, error) {
	doc := &ProfileDocument{
		Workload: workloadName,
		Options:  options,
		Topology: src.Topology().String(),
		Views:    make(map[string]json.RawMessage, len(views)),
	}
	if target != nil {
		doc.Target = target.Name
	}
	for _, v := range views {
		raw, err := ExportView(src, v, target)
		if err != nil {
			return nil, err
		}
		doc.Views[v] = raw
	}
	return doc, nil
}

// DataProfileExport returns the document's exported data profile view — the
// input profile diffs run on — or an error when the document was saved
// without it.
func (doc *ProfileDocument) DataProfileExport() (json.RawMessage, error) {
	raw, ok := doc.Views["dataprofile"]
	if !ok || len(raw) == 0 || string(raw) == "null" {
		return nil, fmt.Errorf("profile document has no dataprofile view (views: %s)", strings.Join(docViewNames(doc), ", "))
	}
	return raw, nil
}

func docViewNames(doc *ProfileDocument) []string {
	names := make([]string, 0, len(doc.Views))
	for v := range doc.Views {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}

type flowNodeJSON struct {
	Function  string         `json:"function"`
	CPUChange bool           `json:"cpu_change"`
	Count     uint64         `json:"count"`
	OffLo     uint32         `json:"offset_lo"`
	OffHi     uint32         `json:"offset_hi"`
	Latency   float64        `json:"avg_latency_cycles,omitempty"`
	Children  []flowNodeJSON `json:"children,omitempty"`
}

// MarshalJSON exports the data flow graph as a tree.
func (g *FlowGraph) MarshalJSON() ([]byte, error) {
	var conv func(nodes []*FlowNode) []flowNodeJSON
	conv = func(nodes []*FlowNode) []flowNodeJSON {
		var out []flowNodeJSON
		for _, n := range nodes {
			j := flowNodeJSON{
				Function:  sym.Name(n.PC),
				CPUChange: n.CPUChange,
				Count:     n.Count,
				OffLo:     n.OffLo,
				OffHi:     n.OffHi,
				Children:  conv(n.Children),
			}
			if n.HaveStats {
				j.Latency = n.AvgLatency
			}
			out = append(out, j)
		}
		return out
	}
	return json.Marshal(struct {
		Type  string         `json:"type"`
		Roots []flowNodeJSON `json:"roots"`
	}{g.Type.Name, conv(g.Roots)})
}
