// experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index and EXPERIMENTS.md
// for paper-vs-measured discussion).
//
// Usage:
//
//	experiments [-testdata DIR] [-packets N] [table1|throughput|table2|table3|fig4|fig6|discussion|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"ipsa/internal/experiments"
)

func main() {
	cfg := experiments.Default("testdata")
	flag.StringVar(&cfg.TestdataDir, "testdata", cfg.TestdataDir, "directory with the shipped designs and scripts")
	flag.IntVar(&cfg.Packets, "packets", cfg.Packets, "packets per software throughput measurement")
	flag.IntVar(&cfg.Entries, "entries", cfg.Entries, "filler entries per table for load measurements")
	flag.Parse()
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	run := func(name string, f func() (fmt.Stringer, error)) {
		if what != "all" && what != name {
			return
		}
		r, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(r.String())
	}

	run("table1", func() (fmt.Stringer, error) { return experiments.Table1(cfg) })
	run("throughput", func() (fmt.Stringer, error) { return experiments.Throughput(cfg) })
	run("table2", func() (fmt.Stringer, error) { return experiments.Table2(cfg), nil })
	run("table3", func() (fmt.Stringer, error) { return experiments.Table3(cfg) })
	run("fig4", func() (fmt.Stringer, error) { return experiments.Fig4(cfg) })
	run("fig6", func() (fmt.Stringer, error) { return experiments.Fig6(cfg), nil })
	run("discussion", func() (fmt.Stringer, error) { return experiments.Discussion(cfg) })
}
