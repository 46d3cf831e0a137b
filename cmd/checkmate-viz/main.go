// Command checkmate-viz visualizes rematerialization schedules: the R-matrix
// art of paper Figure 7, the memory-over-time trace of Figure 1, or the
// data-flow graph in Graphviz DOT form.
//
// Example:
//
//	checkmate-viz -model vgg19 -batch 4 -budget 0.5 -mode rmatrix
//	checkmate-viz -model unet -mode dot > unet.dot
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/checkmate"
)

func main() {
	var (
		model    = flag.String("model", "vgg19", "model name")
		batch    = flag.Int("batch", 4, "batch size")
		budgetF  = flag.Float64("budget", 0.5, "budget as a fraction of the schedulable range (0 = minimum feasible, 1 = checkpoint-all peak)")
		segments = flag.Int("segments", 12, "coarse block count")
		mode     = flag.String("mode", "rmatrix", "rmatrix | trace | dot")
		limit    = flag.Duration("timelimit", 45*time.Second, "ILP time limit")
	)
	flag.Parse()

	wl, err := checkmate.Load(*model, checkmate.Options{Batch: *batch, CoarseSegments: *segments})
	if err != nil {
		fatal(err)
	}
	if *mode == "dot" {
		fmt.Print(wl.Graph.DOT(*model))
		return
	}
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	budget := minB + int64(*budgetF*float64(peak-minB))
	sched, err := checkmate.Solve(context.Background(), checkmate.Request{
		Workload: wl, Budget: budget, TimeLimit: *limit, RelGap: 0.02,
	})
	if err != nil {
		fatal(err)
	}
	switch *mode {
	case "rmatrix":
		fmt.Printf("# R matrix (%s, budget %.0f%% of peak): '#'=compute, '.'=retained\n", *model, 100**budgetF)
		s := sched.Sched
		for t := 0; t < s.N; t++ {
			row := make([]byte, s.N)
			for i := 0; i < s.N; i++ {
				switch {
				case s.R[t][i]:
					row[i] = '#'
				case s.S[t][i]:
					row[i] = '.'
				default:
					row[i] = ' '
				}
			}
			fmt.Printf("%3d |%s|\n", t, row)
		}
		fmt.Printf("# cost overhead %.3fx, peak %.2f GiB\n", sched.Overhead(), float64(sched.PeakBytes)/float64(1<<30))
	case "trace":
		trace, err := wl.MemoryTrace(sched)
		if err != nil {
			fatal(err)
		}
		fmt.Println("# memory in use after each plan statement (GiB)")
		for i, m := range trace {
			fmt.Printf("%d %.4f\n", i, float64(m)/float64(1<<30))
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkmate-viz:", err)
	os.Exit(1)
}
