// Command experiments regenerates every table and figure from the paper's
// evaluation, each as a paper-vs-measured table (the experiments live in
// internal/experiments).
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig5
//	experiments -exp fig5 -features 1000,5000,10000,20000
//
// Experiments: fig1, fig2, tab1, fig4, fig5, fig6, fig7, tab2, deletion, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bullion/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1|fig2|tab1|fig4|fig5|fig6|fig7|reorder|tab2|deletion|all)")
	features := flag.String("features", "", "comma-separated feature counts for fig5 (default 1000,5000,10000,20000)")
	flag.Parse()

	var featureCounts []int
	if *features != "" {
		for _, s := range strings.Split(*features, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "experiments: bad feature count %q\n", s)
				os.Exit(2)
			}
			featureCounts = append(featureCounts, n)
		}
	}

	var err error
	switch *exp {
	case "fig1":
		err = experiments.Fig1(os.Stdout)
	case "fig2":
		err = experiments.Fig2(os.Stdout)
	case "tab1":
		err = experiments.Tab1(os.Stdout)
	case "fig4":
		err = experiments.Fig4(os.Stdout)
	case "fig5":
		err = experiments.Fig5(os.Stdout, featureCounts)
	case "fig6":
		err = experiments.Fig6(os.Stdout)
	case "fig7":
		err = experiments.Fig7(os.Stdout)
	case "reorder":
		err = experiments.Reorder(os.Stdout)
	case "tab2":
		err = experiments.Tab2(os.Stdout)
	case "deletion":
		err = experiments.Deletion(os.Stdout)
	case "all":
		err = experiments.All(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
