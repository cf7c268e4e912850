package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readSet(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	e2e := make(map[string]*result)
	for _, r := range s.Results {
		if r.Trace == 0 {
			e2e[r.Workload] = r
		}
	}
	return e2e, nil
}

// verdict classifies B against A for one metric: "worse" when B's value is
// worse than A's by more than bound×A, "unresolved" when either run's own
// segment spread is wider than the bound (the difference cannot be told
// from noise), else "ok".
func verdict(m specMetric, a, b metric, aIQR, bIQR float64) (string, float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	delta := (b.Value - a.Value) / a.Value
	if aIQR/a.Value > m.Bound || (b.Value != 0 && bIQR/b.Value > m.Bound) {
		return "unresolved", delta
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	if worse > m.Bound {
		return "worse", delta
	}
	return "ok", delta
}

// compareFiles prints, per workload × end-to-end metric, A, B, the change,
// the bound and the verdict, and fails on any "worse" or on a higher share
// of failed logins.
func compareFiles(specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	setA, err := readSet(pathA)
	if err != nil {
		return err
	}
	setB, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		a, b := setA[w.Name], setB[w.Name]
		if a == nil || b == nil {
			fmt.Printf("%-10s missing from one side\n", w.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			v, delta := verdict(m, a.Metrics[m.Name], b.Metrics[m.Name],
				a.Metrics[m.Name+".iqr"].Value, b.Metrics[m.Name+".iqr"].Value)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-10s %-18s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, a.Metrics[m.Name].Value, b.Metrics[m.Name].Value, 100*delta, 100*m.Bound, v)
		}
		fa, fb := float64(a.Failed)/float64(max(a.Attempted, 1)), float64(b.Failed)/float64(max(b.Attempted, 1))
		v := "ok"
		if fb > fa {
			v = "worse"
			bad++
		}
		fmt.Printf("%-10s %-18s %14.6g %14.6g %8s %7s  %s\n", w.Name, "fail_ratio", fa, fb, "", "+0", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are worse", bad)
	}
	return nil
}
