package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	better      verdict = "better"
	worse       verdict = "worse"
	withinBound verdict = "within bound"
	// unresolved: one side's own runs spread wider than the bound, so a
	// difference of that size cannot be told from noise.
	unresolved verdict = "unresolved"
	missing    verdict = "missing"
)

// judge compares two sets of runs of one metric. change is how much the
// new median is worse than the old one, as a share of the old (negative
// when it improved).
func judge(old, cur *metricResult) (v verdict, change float64) {
	if old == nil || cur == nil || len(old.Values) == 0 || len(cur.Values) == 0 {
		return missing, 0
	}
	if old.Median != 0 {
		change = (cur.Median - old.Median) / old.Median
	}
	if old.Better == "higher" {
		change = -change
	}
	bound := old.Bound
	switch {
	case spread(old.Values) > bound || spread(cur.Values) > bound:
		return unresolved, change
	case change > bound:
		return worse, change
	case change < -bound:
		return better, change
	default:
		return withinBound, change
	}
}

// compareResults prints one row per workload and end-to-end metric and
// reports whether any metric got worse (or went missing).
func compareResults(w io.Writer, old, cur *results) (regressed bool) {
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\tbound\told spread\tnew spread\tverdict")
	for _, name := range names {
		ow, cw := old.Workloads[name], cur.Workloads[name]
		for _, spec := range endToEnd {
			om := ow.EndToEnd[spec.Name]
			var cm *metricResult
			if cw != nil {
				cm = cw.EndToEnd[spec.Name]
			}
			v, change := judge(om, cm)
			if v == worse || v == missing {
				regressed = true
			}
			if v == missing {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t%s\n", name, spec.Name, v)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				name, spec.Name, om.Median, om.Unit, cm.Median, cm.Unit,
				100*change, 100*om.Bound, 100*spread(om.Values), 100*spread(cm.Values), v)
		}
	}
	tw.Flush()
	return regressed
}
