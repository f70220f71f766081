package xbar

import (
	"sync"
	"testing"
)

// andDesign builds a tiny 2-input AND crossbar by hand: the input wordline
// reaches the output wordline iff both literals conduct through the shared
// bitline chain.
func andDesign() *Design {
	d := mustDesign(3, 2,
		Cell{Row: 2, Col: 0, Entry: Entry{Kind: Lit, Var: 0}}, // input row -> bitline 0 via a
		Cell{Row: 1, Col: 0, Entry: Entry{Kind: Lit, Var: 1}}, // bitline 0 -> middle row via b
		Cell{Row: 1, Col: 1, Entry: Entry{Kind: On}},          // middle row -> bitline 1
		Cell{Row: 0, Col: 1, Entry: Entry{Kind: On}},          // bitline 1 -> output row
	)
	d.InputRow = 2
	d.OutputRows = []int{0}
	return d
}

// TestEvalConcurrentFirstCall races the very first Eval calls on a fresh
// Design: evaluation only reads the cell list NewDesign built, so
// concurrent Evals must be race-free (run under -race) and leave the
// design unchanged.
func TestEvalConcurrentFirstCall(t *testing.T) {
	d := andDesign()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < 4; a++ {
				in := []bool{a&1 != 0, a&2 != 0}
				got := d.Eval(in)[0]
				want := in[0] && in[1]
				if got != want {
					t.Errorf("Eval(%v) = %v, want %v", in, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(d.Cells()); n != 4 {
		t.Errorf("design has %d cells, want 4", n)
	}
}
