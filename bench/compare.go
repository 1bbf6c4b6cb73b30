package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords loads an -out file into workload → metric → values.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every workload and metric both files hold,
// each side's median and quartiles over its runs, and for end-to-end
// metrics a verdict against the bound BENCHMARK.json fixes (see judge).
func compareFiles(w io.Writer, benchPath, basePath, headPath string) error {
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	type rule struct {
		better string
		bound  float64 // NaN for per-layer metrics, which have none
	}
	var names []string
	rules := map[string]rule{}
	for _, m := range bench.EndToEnd {
		names = append(names, m.Name)
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	for _, m := range bench.PerLayer {
		names = append(names, m.Name)
		rules[m.Name] = rule{bound: math.NaN()}
	}
	var wls []string
	for wl := range base {
		if head[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-15s %-28s %-34s %-34s %8s  %s\n", "workload", "metric", "base median [q1, q3] n", "head median [q1, q3] n", "delta", "verdict")
	worse := 0
	for _, wl := range wls {
		for _, name := range names {
			b, h := base[wl][name], head[wl][name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			r := rules[name]
			b1, bm, b3 := quartiles(b)
			h1, hm, h3 := quartiles(h)
			delta := math.NaN()
			if bm != 0 {
				delta = (hm - bm) / math.Abs(bm)
			}
			verdict := "-"
			if !math.IsNaN(r.bound) {
				verdict = judge(r.better, r.bound, delta, spread(b1, bm, b3), spread(h1, hm, h3), separated(r.better, b, h))
				if verdict == "worse" {
					worse++
				}
			}
			fmt.Fprintf(w, "%-15s %-28s %-34s %-34s %+7.1f%%  %s\n", wl, name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", bm, b1, b3, len(b)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", hm, h1, h3, len(h)),
				100*delta, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d workload x metric pairs worse beyond their bound\n", worse)
	}
	return nil
}

// judge gives head's verdict against base. delta is the relative change
// of the median, the spreads are each side's quartile distance over its
// median, and sep says whether the runs separate completely (see
// separated). A spread wider than the bound leaves a change unresolved
// unless the runs separate.
func judge(better string, bound, delta, baseSpread, headSpread float64, sep int) string {
	if better == "lower" {
		delta = -delta
	}
	switch {
	case sep > 0:
		return "better"
	case sep < 0 && -delta > bound:
		return "worse"
	case baseSpread > bound || headSpread > bound:
		return "unresolved"
	case delta < -bound:
		return "worse"
	case delta > bound:
		return "better"
	}
	return "same"
}

// separated is 1 when every head run is better than every base run, -1
// when every one is worse, 0 otherwise.
func separated(better string, base, head []float64) int {
	bmin, bmax := minMax(base)
	hmin, hmax := minMax(head)
	lowerWins := better == "lower"
	switch {
	case (lowerWins && hmax < bmin) || (!lowerWins && hmin > bmax):
		return 1
	case (lowerWins && hmin > bmax) || (!lowerWins && hmax < bmin):
		return -1
	}
	return 0
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) and statistics.median
// compute them (the "exclusive" method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med = percentile(s, 50)
	if len(s) < 2 {
		return med, med, med
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), med, at(3)
}
