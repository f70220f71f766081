package xbar

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"compact/internal/invariant"
)

// FuzzDesignJSON asserts that decoding arbitrary bytes as a Design never
// panics, that any design the decoder accepts can be evaluated safely
// (Eval with a NumVars-sized assignment, EvalChecked with a deliberately
// short one), and that accepted designs survive an encode → decode round
// trip byte-for-byte.
func FuzzDesignJSON(f *testing.F) {
	seeds := []string{
		`{"v":1,"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":0},{"r":1,"c":0,"k":"on"}]}`,
		`{"v":1,"rows":0,"cols":0,"input_row":0,"output_rows":[],"cells":[]}`,
		`{"v":1,"rows":3,"cols":2,"input_row":2,"output_rows":[0,0],"output_names":["f","g"],"var_names":["a"],"cells":[{"r":0,"c":1,"k":"lit","var":0,"neg":true}]}`,
		// Accepted by the decoder: no var_names, so the large literal index
		// is unchecked at decode time — Eval must still be safe.
		`{"v":1,"rows":1,"cols":1,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":1000}]}`,
		// Accepted: a huge declared extent with no cells must decode
		// without allocating the grid.
		`{"v":1,"rows":65536,"cols":32768,"input_row":0,"output_rows":[]}`,
		// Rejected inputs: bad version, bad coordinates, duplicate cell,
		// unknown kind, out-of-range references.
		`{"v":2,"rows":1,"cols":1}`,
		`{"v":1,"rows":-1,"cols":4}`,
		`{"v":1,"rows":1,"cols":1,"input_row":5,"output_rows":[0]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[9]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"on"},{"r":0,"c":0,"k":"on"}]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"wat"}]}`,
		`{"v":1,"rows":2,"cols":2,"input_row":0,"output_rows":[0],"var_names":["a"],"cells":[{"r":0,"c":0,"k":"lit","var":7}]}`,
		`not json`,
		`{}`,
		`[]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Design
		if err := json.Unmarshal(data, &d); err != nil {
			return
		}
		// Accepted designs must be evaluable with a sufficient assignment…
		if len(d.OutputRows) > 0 || d.Rows > 0 {
			out := d.Eval(make([]bool, d.NumVars()))
			if len(out) != len(d.OutputRows) {
				t.Fatalf("Eval returned %d outputs for %d output rows", len(out), len(d.OutputRows))
			}
		}
		// …and a short assignment must fail closed, never panic. (NumVars
		// also counts named-but-unreferenced variables, which EvalChecked
		// does not require the assignment to cover — hence the Lit scan.)
		hasLit := false
		for _, c := range d.Cells() {
			hasLit = hasLit || c.Kind == Lit
		}
		if hasLit {
			if _, err := d.EvalChecked(nil); err == nil {
				t.Fatal("EvalChecked accepted a nil assignment for a design with literals")
			}
		}
		enc, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("re-encoding an accepted design failed: %v", err)
		}
		var d2 Design
		if err := json.Unmarshal(enc, &d2); err != nil {
			t.Fatalf("round trip rejected its own output: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(&d2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not byte-stable:\n%s\n%s", enc, enc2)
		}
	})
}

// TestDecodedDesignShortAssignment is the deterministic regression for the
// wire-decode hole the fuzz target covers: with no var_names the decoder
// cannot bound literal indices, so evaluation must catch the short
// assignment itself rather than panic with an index error.
func TestDecodedDesignShortAssignment(t *testing.T) {
	raw := `{"v":1,"rows":1,"cols":1,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":1000}]}`
	var d Design
	if err := json.Unmarshal([]byte(raw), &d); err != nil {
		t.Fatal(err)
	}
	if got, want := d.NumVars(), 1001; got != want {
		t.Fatalf("NumVars = %d, want %d", got, want)
	}
	_, err := d.EvalChecked(make([]bool, 3))
	var ie *invariant.Error
	if !errors.As(err, &ie) {
		t.Fatalf("EvalChecked error %v is not an *invariant.Error", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Eval did not panic on a short assignment")
		}
		if _, ok := r.(*invariant.Error); !ok {
			t.Fatalf("Eval panicked with %T %v, want *invariant.Error", r, r)
		}
	}()
	d.Eval(make([]bool, 3))
}

// TestEntryConductsShortAssignment pins the cell-level backstop: a literal
// the assignment does not cover never conducts (and never panics).
func TestEntryConductsShortAssignment(t *testing.T) {
	e := Entry{Kind: Lit, Var: 5}
	if e.Conducts([]bool{true, true}) {
		t.Fatal("uncovered literal conducts")
	}
	if (Entry{Kind: Lit, Var: -1}).Conducts([]bool{true}) {
		t.Fatal("negative literal index conducts")
	}
	neg := Entry{Kind: Lit, Var: 9, Neg: true}
	if neg.Conducts(nil) {
		t.Fatal("uncovered negated literal conducts")
	}
}
