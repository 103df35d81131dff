package main

import "math"

// aaRow is one workload × end-to-end metric of an A/A run: the same
// commit measured twice in one invocation, each side in a process of its
// own. The difference is the benchmark's own noise floor, held against the
// bound the metric commits to.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	APrime   float64 `json:"a_prime"`
	Worse    float64 `json:"worse_by"` // share of A by which A′ is worse; negative if better
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// aaRows pairs each A workload with its A′ twin. Neither side is the
// parent, so a difference in either direction counts against the bound.
func aaRows(ws []*workloadResult) []aaRow {
	twin := make(map[string]*workloadResult)
	for _, w := range ws {
		if w.Set != "A" {
			twin[w.Name] = w
		}
	}
	var rows []aaRow
	for _, w := range ws {
		t := twin[w.Name]
		if w.Set != "A" || t == nil {
			continue
		}
		for _, def := range endToEnd {
			a, b := w.EndToEnd[def.Name].Median, t.EndToEnd[def.Name].Median
			d := relDiff(a, b, def.Better)
			rows = append(rows, aaRow{
				Workload: w.Name, Metric: def.Name, A: a, APrime: b,
				Worse: d, Bound: def.Bound, Within: math.Abs(d) <= def.Bound,
			})
		}
	}
	return rows
}
