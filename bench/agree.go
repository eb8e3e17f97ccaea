package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// sameSeedBound is the tighter bound the allocation metrics are held to when
// the same seed is compared with itself. The bounds in BENCHMARK.json have to
// cover the spread over ten different seeds, because that is what the driver
// measures, and on campaign_chaos and analysis_batch different worlds cost
// up to 2.5 % more or fewer allocations per op. For one seed the counts repeat
// to a hundredth of a percent, so run against run they hold the 0.02 the
// issue gave them.
var sameSeedBound = map[string]float64{
	"allocs_per_op":   0.02,
	"alloc_kb_per_op": 0.02,
}

// runAgree compares two result sets of the same commit on the same machine
// metric by metric, the way the driver does: for every workload and
// end-to-end metric the second set's median may not be worse than the
// first's by more than the metric's bound, and the spread of either set
// (interquartile range over median, the quartiles as Python's
// statistics.quantiles(n=4) gives them) must stay within the bound too. On
// top of that the runs of the two sets that share a seed are compared one
// to one: the median of those differences is held to sameSeedBound where
// the metric has one. It returns an error naming each metric/workload pair
// outside its bound.
func runAgree(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s\n   %+v\nB: %s\n   %+v\n", pathA, a.Fingerprint, pathB, b.Fingerprint)
	if a.Fingerprint != b.Fingerprint || a.Seconds != b.Seconds {
		return fmt.Errorf("the two sets were taken on different machines or settings; refusing to compare")
	}
	var outside []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, w.name, d.Name), valuesOf(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				outside = append(outside, fmt.Sprintf("%s/%s: missing from a set", w.name, d.Name))
				continue
			}
			worseBy := func(x, y float64) float64 {
				if d.Better == "higher" {
					return (x - y) / x
				}
				return (y - x) / x
			}
			la, lb := listOf(va), listOf(vb)
			ma, mb := median(la), median(lb)
			worse := worseBy(ma, mb)
			sa, sb := spread(la), spread(lb)
			var pairs []float64
			for seed, x := range va {
				if y, ok := vb[seed]; ok {
					pairs = append(pairs, worseBy(x, y))
				}
			}
			paired := median(pairs)
			pairBound := d.Bound
			if t, ok := sameSeedBound[d.Name]; ok {
				pairBound = t
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "MEDIAN WORSE"
				outside = append(outside, fmt.Sprintf("%s/%s: median %.6g -> %.6g is %.1f%% worse (bound %.0f%%)",
					w.name, d.Name, ma, mb, 100*worse, 100*d.Bound))
			}
			if max(sa, sb) > d.Bound {
				verdict = "SPREAD"
				outside = append(outside, fmt.Sprintf("%s/%s: spread %.1f%% / %.1f%% exceeds the bound %.0f%%",
					w.name, d.Name, 100*sa, 100*sb, 100*d.Bound))
			}
			if paired > pairBound {
				verdict = "SAME SEED WORSE"
				outside = append(outside, fmt.Sprintf("%s/%s: the same seeds are %.2f%% worse in B (median of %d pairs, bound %.0f%%)",
					w.name, d.Name, 100*paired, len(pairs), 100*pairBound))
			}
			fmt.Printf("%-15s %-16s A %12.6g (n=%d, spread %5.2f%%)  B %12.6g (n=%d, spread %5.2f%%)  worse %+6.2f%%  bound %2.0f%%  same seed %+6.2f%% (n=%d, bound %2.0f%%)  %s\n",
				w.name, d.Name, ma, len(va), 100*sa, mb, len(vb), 100*sb, 100*worse, 100*d.Bound, 100*paired, len(pairs), 100*pairBound, verdict)
		}
		for _, set := range []*resultSet{a, b} {
			for _, r := range set.Runs {
				if r.Workload == w.name && r.Failed > 0 {
					outside = append(outside, fmt.Sprintf("%s: seed %d failed %d of %d ops", w.name, r.Seed, r.Failed, r.Attempted))
				}
			}
		}
	}
	if len(outside) > 0 {
		for _, s := range outside {
			fmt.Println("OUTSIDE", s)
		}
		return fmt.Errorf("%d metric/workload pairs outside their bounds", len(outside))
	}
	fmt.Println("the two sets agree within every bound")
	return nil
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// valuesOf lists a metric's value in every untraced run of a workload, by
// the run's seed.
func valuesOf(set *resultSet, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out[r.Seed] = v
			}
		}
	}
	return out
}

// listOf drops the seeds; median and spread sort for themselves.
func listOf(vs map[uint64]float64) []float64 {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		out = append(out, v)
	}
	return out
}

// spread is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4), its default exclusive method.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	if med := median(s); med != 0 {
		return (q(3) - q(1)) / med
	}
	return 0
}
