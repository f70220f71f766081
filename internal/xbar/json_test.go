package xbar

import (
	"encoding/json"
	"strings"
	"testing"
)

// fig2Design builds a small hand-made design exercising every cell kind.
func fig2Design() *Design {
	d := mustDesign(4, 3,
		Cell{Row: 0, Col: 0, Entry: Entry{Kind: Lit, Var: 0}},
		Cell{Row: 1, Col: 0, Entry: Entry{Kind: On}},
		Cell{Row: 1, Col: 1, Entry: Entry{Kind: Lit, Var: 1, Neg: true}},
		Cell{Row: 2, Col: 1, Entry: Entry{Kind: Lit, Var: 2}},
		Cell{Row: 3, Col: 2, Entry: Entry{Kind: Lit, Var: 0, Neg: true}},
		Cell{Row: 0, Col: 2, Entry: Entry{Kind: On}},
	)
	d.InputRow = 3
	d.OutputRows = []int{0}
	d.OutputNames = []string{"f"}
	d.VarNames = []string{"a", "b", "c"}
	return d
}

func TestDesignJSONRoundTripEvalParity(t *testing.T) {
	orig := fig2Design()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var dec Design
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Rows != orig.Rows || dec.Cols != orig.Cols || dec.InputRow != orig.InputRow {
		t.Fatalf("decoded geometry %dx%d/in=%d differs from %dx%d/in=%d",
			dec.Rows, dec.Cols, dec.InputRow, orig.Rows, orig.Cols, orig.InputRow)
	}
	// Eval parity over every assignment of the 3 variables.
	for a := 0; a < 8; a++ {
		in := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
		want, got := orig.Eval(in), dec.Eval(in)
		for o := range want {
			if want[o] != got[o] {
				t.Fatalf("Eval parity broken at %v output %d: %v vs %v", in, o, want[o], got[o])
			}
		}
	}
	// A second marshal of the decoded design is byte-identical (stable
	// wire format: cells serialize in row-major order).
	data2, err := json.Marshal(&dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal not byte-identical:\n%s\n%s", data, data2)
	}
}

func TestDesignJSONSparse(t *testing.T) {
	d := mustDesign(50, 50, Cell{Row: 7, Col: 9, Entry: Entry{Kind: On}})
	d.OutputRows = []int{0}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	// 2500 cells, one programmed: the wire form must stay tiny.
	if len(data) > 400 {
		t.Fatalf("sparse encoding is %d bytes for a 1-cell design: %s", len(data), data)
	}
	var dec Design
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.At(7, 9).Kind != On || len(dec.Cells()) != 1 {
		t.Fatal("programmed cell lost in round trip")
	}
}

func TestDesignJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"version", `{"v":99,"rows":1,"cols":1,"input_row":0,"output_rows":[],"cells":[]}`, "wire version"},
		{"negative dims", `{"rows":-1,"cols":1,"input_row":0,"output_rows":[],"cells":[]}`, "negative"},
		{"input row", `{"rows":2,"cols":2,"input_row":5,"output_rows":[],"cells":[]}`, "input row"},
		{"output row", `{"rows":2,"cols":2,"input_row":0,"output_rows":[9],"cells":[]}`, "output row"},
		{"names mismatch", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"output_names":["a","b"],"cells":[]}`, "output names"},
		{"cell out of range", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":5,"c":0,"k":"on"}]}`, "outside"},
		{"duplicate cell", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"on"},{"r":0,"c":0,"k":"on"}]}`, "duplicate"},
		{"bad kind", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"maybe"}]}`, "unknown kind"},
		{"bad var", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"var_names":["a"],"cells":[{"r":0,"c":0,"k":"lit","var":3}]}`, "references variable"},
		{"negative var", `{"rows":2,"cols":2,"input_row":0,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"lit","var":-1}]}`, "negative variable"},
		{"not json", `{`, "JSON"},
		{"oversized", `{"rows":1000000000,"cols":1000000000,"input_row":0,"output_rows":[],"cells":[]}`, "cap"},
	}
	for _, tc := range cases {
		var d Design
		err := json.Unmarshal([]byte(tc.src), &d)
		if err == nil {
			t.Errorf("%s: malformed design accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDesignJSONReuseResetsSparseCache(t *testing.T) {
	var d Design
	one := `{"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[{"r":0,"c":0,"k":"on"},{"r":1,"c":0,"k":"on"}]}`
	if err := json.Unmarshal([]byte(one), &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Eval(nil); !got[0] {
		t.Fatal("decoded design should conduct input->output")
	}
	// Re-decode an empty design into the same value: the cells from the
	// first decode must not leak through.
	two := `{"rows":2,"cols":2,"input_row":1,"output_rows":[0],"cells":[]}`
	if err := json.Unmarshal([]byte(two), &d); err != nil {
		t.Fatal(err)
	}
	if got := d.Eval(nil); got[0] {
		t.Fatal("stale cells survived re-decode")
	}
}
