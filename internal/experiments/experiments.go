// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function from Options to a typed result
// that carries both the regenerated data series and, where the paper reports
// concrete numbers, the paper's values for side-by-side comparison. The
// wsnbench command and the repository's benchmark suite are thin wrappers
// around this package; EXPERIMENTS.md records the outcomes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"wsnlink/internal/obs"
	"wsnlink/internal/sim"
	"wsnlink/internal/sweep"
)

// Options scales the underlying simulations. The defaults keep every
// experiment fast enough for `go test -bench`; raise Packets toward the
// paper's 4500 for tighter statistics.
type Options struct {
	// Packets per configuration (default 400).
	Packets int
	// Seed is the base seed for all runs (default 1).
	Seed uint64
	// Fast selects the Monte-Carlo simulator path (default true via
	// withDefaults; set FullDES to force the event-driven engine).
	FullDES bool
	// Workers for parallel sweeps (default GOMAXPROCS).
	Workers int
	// Context cancels the underlying sweeps (default
	// context.Background()); wsnbench wires SIGINT/SIGTERM here so a
	// long experiment run shuts down gracefully.
	Context context.Context
	// Obs, if non-nil, receives telemetry from every sweep and
	// simulation an experiment performs (wsnbench wires -metrics-out
	// and -pprof here). nil disables instrumentation at zero cost.
	Obs *obs.Metrics
}

func (o Options) withDefaults() Options {
	if o.Packets == 0 {
		o.Packets = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ctx returns the run context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// runOptions maps experiment options onto sweep options; seedOffset keeps
// the per-experiment seed streams distinct.
func (o Options) runOptions(seedOffset uint64) sweep.RunOptions {
	opts := sweep.RunOptions{
		Packets:  o.Packets,
		BaseSeed: o.Seed + seedOffset,
		Workers:  o.Workers,
		Metrics:  o.Obs,
	}
	if o.FullDES {
		opts.Engine = sim.EngineDES
	}
	return opts
}

// Series is one named line of (x, y) points for a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.X) }

// Sort orders the points by x ascending (stable for equal x).
func (s *Series) Sort() {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	nx := make([]float64, len(s.X))
	ny := make([]float64, len(s.Y))
	for i, j := range idx {
		nx[i], ny[i] = s.X[j], s.Y[j]
	}
	s.X, s.Y = nx, ny
}

// YMax returns the maximum y value and its x position (0,0 when empty).
func (s Series) YMax() (x, y float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	bi := 0
	for i, v := range s.Y {
		if v > s.Y[bi] {
			bi = i
		}
	}
	return s.X[bi], s.Y[bi]
}

// Comparison pairs a paper-reported value with the regenerated one.
type Comparison struct {
	Name     string
	Paper    float64
	Measured float64
}

// RelErr returns |measured−paper|/|paper|.
func (c Comparison) RelErr() float64 {
	d := c.Paper
	if d == 0 {
		d = 1e-12
	}
	e := (c.Measured - c.Paper) / d
	if e < 0 {
		e = -e
	}
	return e
}

// renderSeries prints series as aligned text columns.
func renderSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "-- %s\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(w, "  %12.4f  %12.6g\n", s.X[i], s.Y[i])
		}
	}
}

// renderComparisons prints a paper-vs-measured table.
func renderComparisons(w io.Writer, title string, cs []Comparison) {
	fmt.Fprintf(w, "== %s: paper vs measured ==\n", title)
	name := "quantity"
	width := len(name)
	for _, c := range cs {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	fmt.Fprintf(w, "  %-*s  %12s  %12s  %8s\n", width, name, "paper", "measured", "rel.err")
	for _, c := range cs {
		fmt.Fprintf(w, "  %-*s  %12.6g  %12.6g  %7.1f%%\n",
			width, c.Name, c.Paper, c.Measured, 100*c.RelErr())
	}
}

// renderTable prints a generic text table.
func renderTable(w io.Writer, title string, cols []string, rows [][]string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], cell)
		}
		return b.String()
	}
	fmt.Fprintln(w, line(cols))
	for _, r := range rows {
		fmt.Fprintln(w, line(r))
	}
}
