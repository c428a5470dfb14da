package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// failBound is fail_ratio's absolute regression bound.
const failBound = 0.001

// runCompare applies the end-to-end bounds (the catalog's, which
// BENCHMARK.json declares) to two sets of untraced runs (A the
// baseline, B the candidate) and prints one row per workload × metric:
// both medians, the change, each side's quartile spread as a share of
// its median, and a verdict. A metric whose
// spread is wider than its bound is "unresolved" unless every B run is
// better than every A run. It exits 1 if any row is "worse" or
// "unresolved".
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzbench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-14s %-5s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "change", "IQR A", "IQR B", "bound", "verdict")
	wls := make([]string, 0, len(a))
	for wl := range a {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			fmt.Fprintf(w, "%-12s (no runs in %s)\n", wl, pathB)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := metricValues(ra, m.name), metricValues(rb, m.name)
			v := verdict(va, vb, m.better, m.bound)
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-12s %-14s %-5s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl, m.name, m.unit, ma, mb, change(ma, mb)*100, spread(va)*100, spread(vb)*100, m.bound*100, v)
		}
		fa, fb := failRatioOf(ra), failRatioOf(rb)
		v := "same"
		if fb-fa > failBound {
			v, code = "worse", 1
		}
		fmt.Fprintf(w, "%-12s %-14s %-5s %12.6f %12.6f %8s %8s %8s %7s  %s\n",
			wl, "fail_ratio", "ratio", fa, fb, "", "", "", "+0.001", v)
	}
	return code
}

// readResults loads untraced results by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func metricValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[name])
	}
	return out
}

func failRatioOf(rs []*result) float64 {
	var att, failed int
	for _, r := range rs {
		att += r.Attempted
		failed += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// change is B's median relative to A's.
func change(ma, mb float64) float64 {
	if ma == 0 {
		return 0
	}
	return (mb - ma) / ma
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// verdict judges B against A for a metric where better is "lower" or
// "higher".
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // positive change = worse
	if better == higher {
		sign = -1
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case sign*change(median(a), median(b)) > bound:
		return "worse"
	default:
		return "same"
	}
}
