// Package exp regenerates every table and figure of the COMPACT paper's
// experimental evaluation (Section VIII) on this repository's benchmark
// circuits. Each experiment returns typed rows, and can render them as an
// aligned text table and a CSV file under the configured output directory.
// The per-experiment mapping to the paper is catalogued in DESIGN.md §4 and
// the measured-vs-paper comparison in EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"compact/internal/core"
	"compact/internal/logic"
)

// Config tunes experiment scope and budgets.
type Config struct {
	// Ctx cancels in-flight experiments cooperatively (nil means
	// background); each synthesis derives its per-solve deadline from it.
	Ctx context.Context
	// TimeLimit bounds each exact labeling solve (default 60s).
	TimeLimit time.Duration
	// OutDir receives CSV and text renderings; empty disables writing.
	OutDir string
	// Quick shrinks benchmark sets and budgets for smoke runs and the
	// testing.B benchmarks.
	Quick bool
	// Verbose echoes progress to stderr.
	Verbose bool
}

func (c Config) timeLimit() time.Duration {
	if c.TimeLimit > 0 {
		return c.TimeLimit
	}
	if c.Quick {
		return 5 * time.Second
	}
	return 60 * time.Second
}

func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// synthesize runs core.SynthesizeContext under the experiment's context, so
// an interrupted harness stops between (and inside) solves.
func (c Config) synthesize(nw *logic.Network, opts core.Options) (*core.Result, error) {
	return core.SynthesizeContext(c.context(), nw, opts)
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// Table is a generic rendered experiment result.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes an aligned text table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Name)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, cell := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		esc := make([]string, len(r))
		for i, cell := range r {
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			esc[i] = cell
		}
		b.WriteString(strings.Join(esc, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Write stores the text and CSV renderings under cfg.OutDir (no-op when
// OutDir is empty).
func (t *Table) Write(cfg Config, baseName string) error {
	if cfg.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.OutDir, baseName+".txt"), []byte(t.Render()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, baseName+".csv"), []byte(t.CSV()), 0o644)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
func dur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}
