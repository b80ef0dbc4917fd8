package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// verdict judges B against A on one end-to-end metric. worse is the
// share of A's median (the base) by which B's median is worse. When
// either side's interquartile spread exceeds the bound and the two
// sets of runs interleave, the pair cannot resolve a change of the
// bound's size and says so rather than "ok".
func verdict(m metricDef, a, b summary) (worse float64, v string) {
	if a.N == 0 || b.N == 0 || a.Median <= 0 || b.Median <= 0 {
		return 0, "missing"
	}
	worse = (b.Median - a.Median) / a.Median
	bWins, aWins := b.Max < a.Min, a.Max < b.Min
	if m.Better == hi {
		worse = -worse
		bWins, aWins = b.Min > a.Max, a.Min > b.Max
	}
	spread := (a.Q3 - a.Q1) / a.Median
	if s := (b.Q3 - b.Q1) / b.Median; s > spread {
		spread = s
	}
	switch {
	case spread > m.Bound && !bWins && !aWins:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "worse"
	}
	return worse, "ok"
}

// compare prints, per workload and end-to-end metric, both medians
// with their quartiles, B's change relative to A, the bound and a
// verdict; then every exact count that differs. It is the tool for the
// repeatability criterion (two sets of runs of one commit must agree)
// and for judging a change against its parent.
func compare(pathA, pathB string, out, errw io.Writer) int {
	a, err := loadResult(pathA)
	if err != nil {
		fmt.Fprintln(errw, "benchmark:", err)
		return 2
	}
	b, err := loadResult(pathB)
	if err != nil {
		fmt.Fprintln(errw, "benchmark:", err)
		return 2
	}
	return compareResults(a, b, out)
}

func compareResults(a, b *result, out io.Writer) int {
	bad := 0
	fmt.Fprintf(out, "A: seed %d, %d rounds, commit %.12s    B: seed %d, %d rounds, commit %.12s\n",
		a.Seed, a.Rounds, a.Env.GitCommit, b.Seed, b.Rounds, b.Env.GitCommit)
	fmt.Fprintf(out, "%-14s %-16s %34s %34s %9s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			worse, v := verdict(m, sa, sb)
			if v != "ok" {
				bad++
			}
			sign := "worse"
			if worse < 0 {
				sign, worse = "better", -worse
			}
			fmt.Fprintf(out, "%-14s %-16s %12.6g [%9.5g, %9.5g] %12.6g [%9.5g, %9.5g] %5.1f%% %-6s %3.0f%%  %s\n",
				w.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*worse, sign, 100*m.Bound, v)
		}
		if wa.OpsFailed != 0 || wb.OpsFailed != 0 {
			bad++
			fmt.Fprintf(out, "%-14s ops_failed: A %d of %d, B %d of %d\n", w.Name, wa.OpsFailed, wa.Ops, wb.OpsFailed, wb.Ops)
		}
	}
	if a.Layers != nil && b.Layers != nil {
		for _, m := range perLayer {
			va, oka := a.Layers.Values[m.Name]
			vb, okb := b.Layers.Values[m.Name]
			if !m.Exact || !oka || !okb {
				continue
			}
			//yyvet:ignore float-eq exact counts are integers carried in float64; they must repeat bit for bit
			if va != vb {
				bad++
				fmt.Fprintf(out, "count %-40s A %.10g  B %.10g  differs\n", m.Name, va, vb)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d comparison(s) not ok\n", bad)
		return 1
	}
	fmt.Fprintln(out, "all end-to-end metrics within their bounds, all exact counts identical")
	return 0
}
