package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"compact/internal/defect"
	"compact/internal/faultinject"
	"compact/internal/spice"
	"compact/internal/xbar"
)

// The verified-repair loop
//
// A placement search (xbar.Place) only reasons about the compatibility
// table; the loop below treats it as untrusted and re-verifies the
// *effective* design — the function the defective array actually computes
// under the chosen binding — against the source network before a result is
// ever returned:
//
//  1. place the design (greedy first; the final attempt forces the exact
//     ILP engine so the loop never gives up while a placement provably
//     exists within budget);
//  2. materialize the effective design with xbar.UnderDefects;
//  3. verify it — a formal sneak-path equivalence proof for SBDD-mode
//     results, exhaustive-or-sampled simulation otherwise;
//  4. on any mismatch, retry with a fresh placement seed.
//
// A proven *xbar.Unplaceable aborts immediately (retrying cannot help),
// context expiry surfaces as the context error, and exhausting the attempt
// budget returns the last failure — a wrong crossbar is never returned
// silently, which is the robustness contract of this stage.

// defectMap resolves the physical array for this synthesis: the explicit
// Options.Defects map, a generated one when DefectRate > 0 (sized exactly
// to the design, no spare lines), or nil when defect handling is off.
// opts must be canonical.
func (o Options) defectMap(d *xbar.Design) (*defect.Map, error) {
	if o.Defects != nil {
		return o.Defects, nil
	}
	if o.DefectRate <= 0 {
		return nil, nil
	}
	return defect.Generate(d.Rows, d.Cols, o.DefectRate, o.DefectOnFraction, o.DefectSeed)
}

// placeWithRepair runs the verified-repair loop described above and, on
// success, records Placement, Effective, Defects and RepairAttempts on the
// result. opts must be canonical (MaxRepairAttempts resolved).
func (r *Result) placeWithRepair(ctx context.Context, dm *defect.Map, opts Options) error {
	attempts := opts.MaxRepairAttempts
	if attempts <= 0 {
		attempts = DefaultRepairAttempts
	}
	if err := faultinject.Err(faultinject.StagePlace); err != nil {
		return fmt.Errorf("core: placement: %w", err)
	}
	if opts.MarginAware {
		done, err := r.placeMarginAware(ctx, dm, opts)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Margin-aware search found nothing it could both verify and keep;
		// the plain loop below is the unconditional fallback.
	}
	var lastErr error
	// rejected fingerprints placements that already failed verification.
	// Every search engine is deterministic in (design, map, seed) — and the
	// identity shortcut and the ILP's near-identity objective ignore the
	// seed entirely — so a fresh attempt can reproduce a rejected binding
	// exactly. Re-verifying it would fail identically; instead the loop
	// escalates straight to the exact engine, and gives up once the exact
	// engine repeats a rejected binding too, because no further attempt can
	// explore anything new.
	rejected := make(map[string]bool)
	forceILP := false
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if fn := progressFrom(ctx).RepairAttempt; fn != nil {
			fn(attempt + 1)
		}
		popts := xbar.PlaceOptions{
			// splitmix64-style odd-constant stride decorrelates attempts
			// while keeping the whole loop a pure function of DefectSeed.
			Seed: opts.DefectSeed + uint64(attempt)*0x9e3779b97f4a7c15,
		}
		if forceILP || attempt == attempts-1 {
			popts.Engine = xbar.PlaceILP
		}
		pl, err := xbar.PlaceContext(ctx, r.Design, dm, popts)
		if err != nil {
			var up *xbar.Unplaceable
			if errors.As(err, &up) && up.Proven {
				return fmt.Errorf("core: placement: %w", err)
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("core: placement: %w", ctxErr)
			}
			lastErr = err
			continue
		}
		fp := fmt.Sprint(pl.RowPerm, pl.ColPerm)
		if rejected[fp] {
			if popts.Engine == xbar.PlaceILP {
				return fmt.Errorf("core: defect-aware placement failed after %d attempts: the exact engine reproduces a placement that already failed verification: %w", attempt+1, lastErr)
			}
			forceILP = true
			continue
		}
		eff, err := r.Design.UnderDefects(dm, pl)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition.
			return fmt.Errorf("core: placement: %w", err)
		}
		injected := false
		if mode, _ := faultinject.Mode(faultinject.StagePlace); mode == "corrupt" && attempt == 0 {
			// Deterministically hand verification a wrong effective design
			// on the first attempt, so tests can drive the repair path.
			if eff, err = corruptDesign(eff); err != nil {
				return fmt.Errorf("core: placement: %w", err)
			}
			injected = true
		}
		if err := r.verifyEffective(eff); err != nil {
			lastErr = err
			if !injected {
				// An injected corruption says nothing about the placement
				// itself; only genuine failures veto a repeat binding.
				rejected[fp] = true
			}
			continue
		}
		r.Placement = pl
		r.Effective = eff
		r.Defects = dm
		r.RepairAttempts = attempt + 1
		return nil
	}
	return fmt.Errorf("core: defect-aware placement failed after %d attempts: %w", attempts, lastErr)
}

// Margin-aware candidate search tuning: how many distinct placements to
// enumerate, and the Margin sampling budget per candidate (exhaustive up
// to 2^6 assignments, 32 seeded samples beyond).
const (
	marginCandidates      = 4
	marginExhaustiveLimit = 6
	marginSamples         = 32
)

// placeMarginAware implements the Options.MarginAware secondary objective:
// enumerate candidate placements, verify each one's effective design, score
// the survivors by simulated worst-case voltage margin and keep the widest.
// It returns done=false (with a nil error) whenever the plain repair loop
// should run instead — candidate search failed unproven, or no candidate
// verified. Scoring failures (e.g. a design past the nodal solver's size
// cap) demote the candidate's score to -Inf rather than failing: a
// verified placement always beats no placement.
func (r *Result) placeMarginAware(ctx context.Context, dm *defect.Map, opts Options) (bool, error) {
	cands, err := xbar.PlaceCandidates(ctx, r.Design, dm, xbar.PlaceOptions{Seed: opts.DefectSeed}, marginCandidates)
	if err != nil {
		var up *xbar.Unplaceable
		if errors.As(err, &up) && up.Proven {
			return false, fmt.Errorf("core: placement: %w", err)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return false, fmt.Errorf("core: placement: %w", ctxErr)
		}
		return false, nil
	}
	var (
		bestPl     *xbar.Placement
		bestEff    *xbar.Design
		bestMargin = math.Inf(-1)
		attempts   int
	)
	for _, pl := range cands {
		if ctx.Err() != nil {
			break // keep the best verified candidate so far, if any
		}
		if fn := progressFrom(ctx).RepairAttempt; fn != nil {
			fn(attempts + 1)
		}
		eff, err := r.Design.UnderDefects(dm, pl)
		if err != nil {
			// Structural rejection of a search-produced placement is a bug,
			// not a retryable condition (same contract as the plain loop).
			return false, fmt.Errorf("core: placement: %w", err)
		}
		attempts++
		if err := r.verifyEffective(eff); err != nil {
			continue
		}
		score := math.Inf(-1)
		rep, err := spice.MarginContext(ctx, r.Design, r.Design.Eval, len(r.Design.VarNames),
			marginExhaustiveLimit, marginSamples,
			spice.Env{Model: spice.Default(), Defects: dm, Placement: pl}, opts.DefectSeed)
		if err == nil {
			score = rep.MinOn - rep.MaxOff
		}
		// Strict improvement only: candidate order starts with identity, so
		// on arrays where placement cannot change the electrical picture the
		// margin-aware loop returns exactly what the plain loop would.
		if bestPl == nil || score > bestMargin {
			bestPl, bestEff, bestMargin = pl, eff, score
		}
	}
	if bestPl == nil {
		return false, nil
	}
	r.Placement = bestPl
	r.Effective = bestEff
	r.Defects = dm
	r.RepairAttempts = attempts
	return true, nil
}

// verifyEffective checks the effective design against the source network:
// a formal sneak-path equivalence proof when the shared BDD is available
// (SBDD mode), exhaustive simulation up to 14 inputs and 512 seeded random
// vectors beyond that otherwise.
func (r *Result) verifyEffective(eff *xbar.Design) error {
	if r.mgr != nil {
		return xbar.FormalVerify(eff, r.network, 0)
	}
	if bad := eff.VerifyAgainst64(r.network.Eval64, r.network.NumInputs(), 14, 512, 1); bad != nil {
		return fmt.Errorf("core: effective design disagrees with the network on %v", bad)
	}
	return nil
}

// corruptDesign returns d with the polarity of its first literal cell
// flipped — the deterministic wrong-design used by the place=corrupt
// injection mode.
func corruptDesign(d *xbar.Design) (*xbar.Design, error) {
	cells := slices.Clone(d.Cells())
	for i := range cells {
		if cells[i].Kind == xbar.Lit {
			cells[i].Neg = !cells[i].Neg
			break
		}
	}
	nd, err := xbar.NewDesign(d.Rows, d.Cols, cells)
	if err != nil {
		return nil, err
	}
	nd.InputRow, nd.OutputRows, nd.OutputNames, nd.VarNames = d.InputRow, d.OutputRows, d.OutputNames, d.VarNames
	return nd, nil
}
