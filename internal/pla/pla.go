// Package pla reads and writes two-level circuits in Berkeley PLA format
// (.i/.o/.ilb/.ob/.p directives followed by cube rows). Multi-output covers
// are supported; each output column with '1' includes the cube in that
// output's on-set, '0' or '~' excludes it, and '-' marks a don't-care (the
// cube is ignored for that output, matching espresso's fr-type default).
package pla

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"compact/internal/errio"
	"compact/internal/logic"
	"compact/internal/wirelimit"
)

// directiveInt parses the single integer operand of a .i/.o/.p directive.
// The operand is capped: a PLA header is attacker-reachable through
// compactd's circuit field, and Table.Network allocates per-input and
// per-output state before any cube row corroborates the declared width, so
// an unbounded `.i 2000000000` would OOM off a 15-byte body.
func directiveInt(fields []string, lineNo int) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("line %d: malformed %s", lineNo, fields[0])
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil || v < 0 {
		return 0, fmt.Errorf("line %d: %s wants a non-negative integer, got %q", lineNo, fields[0], fields[1])
	}
	if err := wirelimit.CheckCount(fields[0]+" operand", v, 0); err != nil {
		return 0, fmt.Errorf("line %d: %v", lineNo, err)
	}
	return v, nil
}

// Table is a parsed PLA: a multi-output SOP cover.
type Table struct {
	Name       string
	NumIn      int
	NumOut     int
	InNames    []string // empty if .ilb absent
	OutNames   []string // empty if .ob absent
	Cubes      []Cube
	Type       string // .type directive value, "" if absent
	DeclaredNP int    // .p value, -1 if absent
}

// Cube is one product term: In over '0','1','-', Out over '0','1','-','~'.
type Cube struct {
	In  string
	Out string
}

// Parse reads a PLA table from r.
func Parse(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64<<20) // grown on demand up to the 64 MiB token cap
	t := &Table{NumIn: -1, NumOut: -1, DeclaredNP: -1}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch fields[0] {
		case ".i":
			if t.NumIn, err = directiveInt(fields, lineNo); err != nil {
				return nil, err
			}
		case ".o":
			if t.NumOut, err = directiveInt(fields, lineNo); err != nil {
				return nil, err
			}
		case ".p":
			if t.DeclaredNP, err = directiveInt(fields, lineNo); err != nil {
				return nil, err
			}
		case ".ilb":
			t.InNames = fields[1:]
		case ".ob":
			t.OutNames = fields[1:]
		case ".type":
			if len(fields) > 1 {
				t.Type = fields[1]
			}
		case ".e", ".end":
			// done
		default:
			if strings.HasPrefix(fields[0], ".") {
				continue // ignore unknown directives
			}
			if t.NumIn < 0 || t.NumOut < 0 {
				return nil, fmt.Errorf("line %d: cube before .i/.o", lineNo)
			}
			var in, out string
			if len(fields) == 2 {
				in, out = fields[0], fields[1]
			} else if len(fields) == 1 && len(fields[0]) == t.NumIn+t.NumOut {
				in, out = fields[0][:t.NumIn], fields[0][t.NumIn:]
			} else {
				return nil, fmt.Errorf("line %d: malformed cube %q", lineNo, line)
			}
			if len(in) != t.NumIn || len(out) != t.NumOut {
				return nil, fmt.Errorf("line %d: cube size mismatch (%d/%d vs .i %d .o %d)",
					lineNo, len(in), len(out), t.NumIn, t.NumOut)
			}
			for _, ch := range in {
				if ch != '0' && ch != '1' && ch != '-' {
					return nil, fmt.Errorf("line %d: bad input literal %q", lineNo, ch)
				}
			}
			for _, ch := range out {
				if ch != '0' && ch != '1' && ch != '-' && ch != '~' {
					return nil, fmt.Errorf("line %d: bad output literal %q", lineNo, ch)
				}
			}
			t.Cubes = append(t.Cubes, Cube{In: in, Out: out})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pla: read: %w", err)
	}
	if t.NumIn < 0 || t.NumOut < 0 {
		return nil, fmt.Errorf("pla: missing .i/.o declarations")
	}
	if t.DeclaredNP >= 0 && t.DeclaredNP != len(t.Cubes) {
		// Tolerate, as espresso output sometimes disagrees; record actual.
		t.DeclaredNP = len(t.Cubes)
	}
	return t, nil
}

// Network converts the table into a logic.Network: each output is the OR of
// its on-set cubes.
func (t *Table) Network(name string) (*logic.Network, error) {
	if name == "" {
		name = t.Name
	}
	if name == "" {
		name = "pla"
	}
	b := logic.NewBuilder(name)
	in := make([]int, t.NumIn)
	for i := range in {
		nm := fmt.Sprintf("i%d", i)
		if i < len(t.InNames) {
			nm = t.InNames[i]
		}
		in[i] = b.Input(nm)
	}
	for o := 0; o < t.NumOut; o++ {
		var terms []int
		for _, c := range t.Cubes {
			if c.Out[o] != '1' {
				continue
			}
			var lits []int
			for i := 0; i < t.NumIn; i++ {
				switch c.In[i] {
				case '1':
					lits = append(lits, in[i])
				case '0':
					lits = append(lits, b.Not(in[i]))
				}
			}
			terms = append(terms, b.And(lits...))
		}
		nm := fmt.Sprintf("o%d", o)
		if o < len(t.OutNames) {
			nm = t.OutNames[o]
		}
		b.Output(nm, b.Or(terms...))
	}
	return b.Build(), nil
}

// FromNetwork builds a PLA table from a network by exhaustive enumeration.
// It is intended for small networks (NumInputs <= maxInputs, default 16 when
// maxInputs <= 0); larger networks return an error.
func FromNetwork(n *logic.Network, maxInputs int) (*Table, error) {
	if maxInputs <= 0 {
		maxInputs = 16
	}
	ni := n.NumInputs()
	if ni > maxInputs {
		return nil, fmt.Errorf("pla: %d inputs exceeds enumeration limit %d", ni, maxInputs)
	}
	t := &Table{
		Name:     n.Name,
		NumIn:    ni,
		NumOut:   n.NumOutputs(),
		InNames:  n.InputNames(),
		OutNames: append([]string(nil), n.OutputNames...),
	}
	in := make([]bool, ni)
	for m := 0; m < 1<<ni; m++ {
		for i := range in {
			in[i] = m&(1<<i) != 0
		}
		out := n.Eval(in)
		any := false
		ob := make([]byte, t.NumOut)
		for o, v := range out {
			if v {
				ob[o] = '1'
				any = true
			} else {
				ob[o] = '0'
			}
		}
		if !any {
			continue
		}
		ib := make([]byte, ni)
		for i := range in {
			if in[i] {
				ib[i] = '1'
			} else {
				ib[i] = '0'
			}
		}
		t.Cubes = append(t.Cubes, Cube{In: string(ib), Out: string(ob)})
	}
	return t, nil
}

// Write serializes the table in PLA format.
func Write(w io.Writer, t *Table) error {
	bw := bufio.NewWriter(w)
	ew := errio.NewWriter(bw)
	ew.Printf(".i %d\n.o %d\n", t.NumIn, t.NumOut)
	if len(t.InNames) == t.NumIn && t.NumIn > 0 {
		ew.Printf(".ilb %s\n", strings.Join(t.InNames, " "))
	}
	if len(t.OutNames) == t.NumOut && t.NumOut > 0 {
		ew.Printf(".ob %s\n", strings.Join(t.OutNames, " "))
	}
	ew.Printf(".p %d\n", len(t.Cubes))
	for _, c := range t.Cubes {
		ew.Printf("%s %s\n", c.In, c.Out)
	}
	ew.Println(".e")
	if err := ew.Err(); err != nil {
		return err
	}
	return bw.Flush()
}
