package main

import (
	"fmt"
	"math"
	"os"
)

// selfCheck runs every selected workload twice with the same seed and
// compares the two runs: a count marked exact must repeat exactly on the
// workloads that use local storage (over HTTP it is held to its bound),
// and a timed metric may not move by more than its bound. It is how the bounds in
// BENCHMARK.json are justified.
func selfCheck(selected []workloadDef, cfg config) int {
	cfg.trace = false
	code := 0
	fmt.Fprintf(os.Stderr, "%-20s %-28s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, w := range selected {
		var runs [2]*report
		for i := range runs {
			var err error
			if runs[i], err = runWorkload(w, cfg, nil); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if runs[i].Result.Failed > 0 {
				code = 1
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Result.Metrics[d.name].Value, runs[1].Result.Metrics[d.name].Value
			worse := (b - a) / a
			if d.better == "higher" {
				worse = (a - b) / a
			}
			verdict := "OK"
			switch {
			case d.exact && !w.remote:
				if a != b {
					verdict = "UNRESOLVED (must repeat exactly)"
				}
			case d.name == "setup_s":
				// Reported, not judged: two runs give two samples.
			case math.Abs(worse) > d.bound:
				verdict = "UNRESOLVED"
			}
			if verdict != "OK" {
				code = 1
			}
			fmt.Fprintf(os.Stderr, "%-20s %-28s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				w.name, d.name, a, b, 100*(b-a)/a, 100*d.bound, verdict)
		}
	}
	return code
}
