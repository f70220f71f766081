package xbar

import "math/bits"

// Word-parallel evaluation: 64 assignments per connectivity closure.
//
// Eval64 carries one uint64 per variable — bit b of words[i] is the value
// of variable i under assignment b — and returns one word per output row.
// Instead of union-find per assignment, connectivity is computed as a
// bitset fixpoint: reach[w] holds, per bit, whether nanowire w is connected
// to the input wordline, and every non-Off cell propagates reachability
// between its row and column wires masked by the cell's 64-assignment
// conduction word. The closure converges in O(path length) alternating
// sweeps over the sparse cell list, so the amortized cost per assignment is
// ~64× below the scalar Eval, which stays as the reference oracle
// (FuzzEval64VsScalar pins the equivalence).

// Conduct64 is Entry.Conducts over 64 assignments at once: bit b of the
// result reports whether the cell conducts under assignment b of words.
// Like Conducts it treats unknown kinds and out-of-range variables as
// non-conducting; NewDesign rejects the first and Eval64Checked the
// second before this is ever reached. Exported for the layered design
// in internal/xbar3d, whose sneak-path closure shares the cell semantics.
func (e Entry) Conduct64(words []uint64) uint64 {
	switch e.Kind {
	case On:
		return ^uint64(0)
	case Lit:
		if e.Var < 0 || int(e.Var) >= len(words) {
			return 0
		}
		w := words[e.Var]
		if e.Neg {
			return ^w
		}
		return w
	default:
		return 0
	}
}

// Eval64 evaluates all outputs under 64 assignments at once. words[i] is
// the 64-assignment value word of variable i (len(words) >= NumVars());
// the result holds one word per output row, bit b giving the output under
// assignment b. Like Eval it panics with the structured invariant error on
// precondition violations; Eval64Checked is the error-returning form.
func (d *Design) Eval64(words []uint64) []uint64 {
	out, err := d.Eval64Checked(words)
	if err != nil {
		//lint:ignore panicfree documented Eval64 precondition on programmer-supplied assignments; Eval64Checked is the error-returning form for wire-decoded designs
		panic(err)
	}
	return out
}

// Eval64Checked is Eval64 with the preconditions checked: short assignment
// words and out-of-range input/output rows return an *invariant.Error
// instead of silently mis-evaluating.
func (d *Design) Eval64Checked(words []uint64) ([]uint64, error) {
	if empty, err := d.checkEval(len(words)); err != nil {
		return nil, err
	} else if empty {
		return []uint64{}, nil
	}
	// Per-cell conduction masks, then the reachability fixpoint. A forward
	// sweep alone needs one pass per hop of the longest sneak path running
	// "down" the cell order; alternating with a backward sweep halves the
	// pass count on zig-zag paths. Termination: each sweep either sets at
	// least one new bit in reach (bounded by 64·(Rows+Cols)) or proves the
	// fixpoint.
	cells := d.cells
	masks := make([]uint64, len(cells))
	for i, c := range cells {
		masks[i] = c.Conduct64(words)
	}
	reach := make([]uint64, d.Rows+d.Cols)
	reach[d.InputRow] = ^uint64(0)
	for {
		changed := false
		for i, cell := range cells {
			m := masks[i]
			if m == 0 {
				continue
			}
			r, c := cell.Row, d.Rows+cell.Col
			u := (reach[r] | reach[c]) & m
			if u&^reach[r] != 0 {
				reach[r] |= u
				changed = true
			}
			if u&^reach[c] != 0 {
				reach[c] |= u
				changed = true
			}
		}
		if !changed {
			break
		}
		changed = false
		for i := len(cells) - 1; i >= 0; i-- {
			m := masks[i]
			if m == 0 {
				continue
			}
			r, c := cells[i].Row, d.Rows+cells[i].Col
			u := (reach[r] | reach[c]) & m
			if u&^reach[r] != 0 {
				reach[r] |= u
				changed = true
			}
			if u&^reach[c] != 0 {
				reach[c] |= u
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make([]uint64, len(d.OutputRows))
	for i, r := range d.OutputRows {
		out[i] = reach[r]
	}
	return out, nil
}

// MaxExhaustiveBits caps the width of exhaustive verification: beyond it
// the 2^nVars enumeration count would overflow int on 32-bit platforms (and
// is computationally absurd on any platform), so VerifyAgainst falls back
// to sampling regardless of the caller's exhaustiveLimit.
const MaxExhaustiveBits = 30

// clampedDefaultSamples is used when the exhaustive→sampling clamp fires
// but the caller asked for zero samples (expecting exhaustive mode to do
// the work): verification must never silently become vacuous.
const clampedDefaultSamples = 4096

// basisWord returns the 64-assignment word of variable i when the batch
// enumerates assignments base..base+63 (base a multiple of 64): bit b is
// bit i of base+b, which for i < 6 depends only on b.
func basisWord(i int) uint64 {
	basis := [6]uint64{
		0xAAAAAAAAAAAAAAAA, // bit 0 of b
		0xCCCCCCCCCCCCCCCC, // bit 1
		0xF0F0F0F0F0F0F0F0, // bit 2
		0xFF00FF00FF00FF00, // bit 3
		0xFFFF0000FFFF0000, // bit 4
		0xFFFFFFFF00000000, // bit 5
	}
	return basis[i]
}

// VerifyAgainst checks the design against a reference evaluator over all
// 2^nVars assignments when nVars <= exhaustiveLimit (clamped to
// MaxExhaustiveBits — wider requests fall back to sampling instead of
// overflowing the enumeration), or over `samples` pseudo-random assignments
// (deterministic LCG seeded with seed) otherwise. It returns the first
// mismatching assignment, or nil if none found. The design side is
// evaluated 64 assignments per pass via Eval64Checked; the reference is
// called per assignment (use VerifyAgainst64 when a word-parallel
// reference is available).
func (d *Design) VerifyAgainst(ref func([]bool) []bool, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	return VerifyEquiv(d.Eval64Checked, ref, nil, nVars, exhaustiveLimit, samples, seed)
}

// VerifyAgainst64 is VerifyAgainst with a word-parallel reference: ref64
// receives one word per variable and must return one word per reference
// output (logic.Network.Eval64 has exactly this shape), so both sides of
// the comparison run 64 assignments per call.
func (d *Design) VerifyAgainst64(ref64 func([]uint64) []uint64, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	return VerifyEquiv(d.Eval64Checked, nil, ref64, nVars, exhaustiveLimit, samples, seed)
}

// VerifyEquiv is the verification driver behind VerifyAgainst and
// VerifyAgainst64, exported so other word-parallel evaluators (the layered
// Design3D in internal/xbar3d) share the exact enumeration, sampling order
// and witness semantics. eval receives one word per variable and returns
// one word per output, or an error when the design under test cannot be
// evaluated at all (which counts as a mismatch: the batch's first
// assignment becomes the witness). Exactly one of ref and ref64 must be
// non-nil. The returned slice is the first mismatching assignment, or nil.
func VerifyEquiv(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, nVars, exhaustiveLimit, samples int, seed uint64) []bool {
	if nVars <= exhaustiveLimit {
		if nVars <= MaxExhaustiveBits {
			return verifyExhaustive(eval, ref, ref64, nVars)
		}
		// Exhaustive mode was requested but is unrepresentable; sample
		// instead, and never with zero vectors.
		if samples <= 0 {
			samples = clampedDefaultSamples
		}
	}
	return verifySampled(eval, ref, ref64, nVars, samples, seed)
}

func verifyExhaustive(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, nVars int) []bool {
	total := 1 << uint(nVars)
	words := make([]uint64, nVars)
	for base := 0; base < total; base += 64 {
		n := total - base
		if n > 64 {
			n = 64
		}
		for i := 0; i < nVars; i++ {
			switch {
			case i < 6:
				words[i] = basisWord(i)
			case base&(1<<uint(i)) != 0:
				words[i] = ^uint64(0)
			default:
				words[i] = 0
			}
		}
		bad := verifyBatch(eval, ref, ref64, words, n, func(b int) []bool {
			in := make([]bool, nVars)
			for i := range in {
				in[i] = (base+b)&(1<<uint(i)) != 0
			}
			return in
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

func verifySampled(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, nVars, samples int, seed uint64) []bool {
	state := seed | 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state
	}
	words := make([]uint64, nVars)
	batch := make([][]bool, 0, 64)
	for s := 0; s < samples; s += 64 {
		n := samples - s
		if n > 64 {
			n = 64
		}
		for i := range words {
			words[i] = 0
		}
		batch = batch[:0]
		// Generate assignments in the exact scalar LCG order (sample-major,
		// variable-minor) so witnesses and coverage match the pre-word
		// implementation bit for bit.
		for b := 0; b < n; b++ {
			in := make([]bool, nVars)
			for i := 0; i < nVars; i++ {
				if next()>>33&1 != 0 {
					in[i] = true
					words[i] |= 1 << uint(b)
				}
			}
			batch = append(batch, in)
		}
		if bad := verifyBatch(eval, ref, ref64, words, n, func(b int) []bool { return batch[b] }); bad != nil {
			return bad
		}
	}
	return nil
}

// verifyBatch compares the evaluator against the reference on assignments
// 0..n-1 of words, returning the lowest-index mismatching assignment
// (materialized via mkAssign) or nil. A design that cannot be evaluated at
// all disagrees by definition; the batch's first assignment is the witness.
func verifyBatch(eval func([]uint64) ([]uint64, error), ref func([]bool) []bool, ref64 func([]uint64) []uint64, words []uint64, n int, mkAssign func(b int) []bool) []bool {
	got, err := eval(words)
	if err != nil {
		return mkAssign(0)
	}
	if ref64 != nil {
		want := ref64(words)
		if len(got) < len(want) {
			return mkAssign(0)
		}
		var mismatch uint64
		for o := range want {
			mismatch |= want[o] ^ got[o]
		}
		if n < 64 {
			mismatch &= 1<<uint(n) - 1
		}
		if mismatch != 0 {
			return mkAssign(bits.TrailingZeros64(mismatch))
		}
		return nil
	}
	for b := 0; b < n; b++ {
		in := mkAssign(b)
		want := ref(in)
		if len(got) < len(want) {
			return in
		}
		for o := range want {
			if want[o] != (got[o]>>uint(b)&1 == 1) {
				return in
			}
		}
	}
	return nil
}
