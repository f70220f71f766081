// Command experiments regenerates the tables and figures of the COMPACT
// paper's evaluation (Section VIII) and writes text + CSV renderings.
//
// Usage:
//
//	experiments [-out results] [-timelimit 60s] [-quick] [-v] [exp ...]
//
// where each exp is one of: table1 table2 table3 table4 fig9 fig10 fig11
// fig12 fig13 baselines ablations scaling flow3d partition margin, or
// "all" (the default). The last six go beyond the paper: a
// DNF/staircase/COMPACT generation comparison, the DESIGN.md §5 ablation
// sweep, semiperimeter growth on parametric families, the FLOW-3D S-vs-K
// sweep, partition overhead under 32x32 tile caps, and variation yield
// with the margin-aware placement delta.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"compact/internal/exp"
)

var experiments = []struct {
	name string
	run  func(exp.Config) (*exp.Table, error)
}{
	{"table1", exp.Table1},
	{"table2", exp.Table2},
	{"table3", exp.Table3},
	{"table4", exp.Table4},
	{"fig9", exp.Fig9},
	{"fig10", exp.Fig10},
	{"fig11", exp.Fig11},
	{"fig12", exp.Fig12},
	{"fig13", exp.Fig13},
	{"baselines", exp.Baselines},
	{"ablations", exp.Ablations},
	{"scaling", exp.Scaling},
	{"flow3d", exp.Flow3D},
	{"partition", exp.Partition},
	{"margin", exp.Margin},
}

func main() {
	outDir := flag.String("out", "results", "output directory for .txt/.csv renderings")
	timeLimit := flag.Duration("timelimit", 60*time.Second, "per-solve time limit for exact labeling")
	quick := flag.Bool("quick", false, "shrink benchmark sets and budgets for a fast smoke run")
	verbose := flag.Bool("v", false, "echo progress to stderr")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := exp.Config{
		Ctx:       ctx,
		TimeLimit: *timeLimit,
		OutDir:    *outDir,
		Quick:     *quick,
		Verbose:   *verbose,
	}
	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range experiments {
			want = append(want, e.name)
		}
	}
	for _, name := range want {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(1)
		}
		found := false
		for _, e := range experiments {
			if e.name != name {
				continue
			}
			found = true
			start := time.Now()
			tab, err := e.run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Print(tab.Render())
			fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		if !found {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
}
