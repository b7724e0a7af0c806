package main

import (
	"encoding/json"
	"io"
)

// benchmarkManifest is BENCHMARK.json: the static declaration of the
// benchmark at the repo root. `perf -manifest` prints it from the same
// tables the program measures by, and a test holds the committed file
// equal to that output.
type benchmarkManifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifestRunSeconds is how long one -seconds run measures: five
// repetitions of about three seconds.
const manifestRunSeconds = 15

func manifestOf() benchmarkManifest {
	m := benchmarkManifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: manifestRunSeconds,
	}
	for _, w := range workloadTable(false) {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.gated() {
			m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
		}
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(manifestOf())
}
