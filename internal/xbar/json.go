package xbar

import (
	"encoding/json"
	"fmt"

	"compact/internal/wirelimit"
)

// The Design wire format (version 1)
//
// Designs marshal to a sparse JSON object — only non-Off cells are listed,
// since crossbars are overwhelmingly empty (the largest benchmark design,
// arbiter, has 109.5M crossings, of which 0.027% are programmed):
//
//	{
//	  "v": 1,
//	  "rows": 5, "cols": 4,
//	  "input_row": 4,
//	  "output_rows": [0, 1],
//	  "output_names": ["f", "g"],
//	  "var_names": ["a", "b", "c"],
//	  "cells": [
//	    {"r": 0, "c": 1, "k": "on"},
//	    {"r": 2, "c": 0, "k": "lit", "var": 2},
//	    {"r": 3, "c": 2, "k": "lit", "var": 0, "neg": true}
//	  ]
//	}
//
// Cells appear in row-major order; "k" is "on" for statically conducting
// devices and "lit" for literal-programmed ones ("var" indexes var_names,
// "neg" marks a complemented literal). UnmarshalJSON validates every
// reference — dimensions, cell coordinates, duplicate cells, variable and
// row indices — so a decoded design is structurally sound and Eval-able,
// or the decode fails with a descriptive error.

// designWireVersion is the current wire format version; UnmarshalJSON
// accepts exactly this value (or an absent field, treated as 1).
const designWireVersion = 1

type designJSON struct {
	Version     int        `json:"v"`
	Rows        int        `json:"rows"`
	Cols        int        `json:"cols"`
	InputRow    int        `json:"input_row"`
	OutputRows  []int      `json:"output_rows"`
	OutputNames []string   `json:"output_names,omitempty"`
	VarNames    []string   `json:"var_names,omitempty"`
	Cells       []cellJSON `json:"cells"`
}

type cellJSON struct {
	Row int    `json:"r"`
	Col int    `json:"c"`
	K   string `json:"k"`
	Var int32  `json:"var,omitempty"`
	Neg bool   `json:"neg,omitempty"`
}

// MarshalJSON encodes the design in the sparse wire format above.
func (d *Design) MarshalJSON() ([]byte, error) {
	dj := designJSON{
		Version:     designWireVersion,
		Rows:        d.Rows,
		Cols:        d.Cols,
		InputRow:    d.InputRow,
		OutputRows:  d.OutputRows,
		OutputNames: d.OutputNames,
		VarNames:    d.VarNames,
	}
	if dj.OutputRows == nil {
		dj.OutputRows = []int{}
	}
	dj.Cells = make([]cellJSON, len(d.cells))
	for i, c := range d.cells {
		dj.Cells[i] = cellJSON{Row: c.Row, Col: c.Col, K: "on"}
		if c.Kind == Lit {
			dj.Cells[i] = cellJSON{Row: c.Row, Col: c.Col, K: "lit", Var: c.Var, Neg: c.Neg}
		}
	}
	return json.Marshal(dj)
}

// UnmarshalJSON decodes and validates the sparse wire format. The decoded
// design is fully usable: Eval, Render, Stats and verification all work on
// it. Unknown wire versions and any out-of-range reference are rejected.
func (d *Design) UnmarshalJSON(data []byte) error {
	var dj designJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return fmt.Errorf("xbar: decoding design: %w", err)
	}
	if dj.Version == 0 {
		dj.Version = designWireVersion
	}
	if dj.Version != designWireVersion {
		return fmt.Errorf("xbar: unsupported design wire version %d (want %d)", dj.Version, designWireVersion)
	}
	// Both dimensions are capped individually before the product check:
	// the old product-only guard had a hole (a huge row count with zero
	// columns passed it). Decoding allocates in proportion to the listed
	// cells plus Rows (the row offsets), never to Rows x Cols.
	const maxWireCells = 1 << 31
	if err := wirelimit.CheckCells("design", dj.Rows, dj.Cols, maxWireCells); err != nil {
		return fmt.Errorf("xbar: %v", err)
	}
	if dj.Rows > 0 && (dj.InputRow < 0 || dj.InputRow >= dj.Rows) {
		return fmt.Errorf("xbar: input row %d outside 0..%d", dj.InputRow, dj.Rows-1)
	}
	for i, r := range dj.OutputRows {
		if r < 0 || r >= dj.Rows {
			return fmt.Errorf("xbar: output row %d (#%d) outside 0..%d", r, i, dj.Rows-1)
		}
	}
	if len(dj.OutputNames) > 0 && len(dj.OutputNames) != len(dj.OutputRows) {
		return fmt.Errorf("xbar: %d output names for %d output rows", len(dj.OutputNames), len(dj.OutputRows))
	}
	cells := make([]Cell, len(dj.Cells))
	for i, c := range dj.Cells {
		cells[i] = Cell{Row: c.Row, Col: c.Col}
		switch c.K {
		case "on":
			cells[i].Entry = Entry{Kind: On}
		case "lit":
			if len(dj.VarNames) > 0 && int(c.Var) >= len(dj.VarNames) {
				return fmt.Errorf("xbar: cell #%d references variable %d of %d", i, c.Var, len(dj.VarNames))
			}
			cells[i].Entry = Entry{Kind: Lit, Var: c.Var, Neg: c.Neg}
		default:
			return fmt.Errorf("xbar: cell #%d has unknown kind %q", i, c.K)
		}
	}
	nd, err := NewDesign(dj.Rows, dj.Cols, cells)
	if err != nil {
		return err
	}
	nd.InputRow = dj.InputRow
	nd.OutputRows = append([]int(nil), dj.OutputRows...)
	nd.OutputNames = append([]string(nil), dj.OutputNames...)
	nd.VarNames = append([]string(nil), dj.VarNames...)
	*d = *nd
	return nil
}
