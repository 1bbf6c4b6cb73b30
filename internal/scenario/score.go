package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/markov"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server"
)

// exactTol is the tolerance under which a stored point counts as an
// exact disclosure of a cell center (matches the mechanism package's
// internal tolerance).
const exactTol = 1e-9

// score computes the deterministic Score over what the server actually
// stored: it reads the sampled users' records back, verifies they are
// byte-identical to what was sent, replays the adversary against them,
// counts policy-graph violations, and measures density utility.
// Cache is left for the caller (measured around the analytics phase).
func (r *runner) score(ctx context.Context) (Score, error) {
	plan := r.plan

	// Snapshot policy state once; the scoring loops read it freely.
	r.mmu.Lock()
	mechs := make(map[int]mechanism.Mechanism, len(r.mechs))
	graphs := make(map[int]*policygraph.Graph, len(r.graphs))
	for v, m := range r.mechs {
		mechs[v] = m
		graphs[v] = r.graphs[v]
	}
	r.mmu.Unlock()

	sampled := sampleUsers(plan.Users, r.cfg.Sample)
	adv := AdversaryScore{SampledUsers: len(sampled), TopK: r.cfg.TopK, Floor: plan.Floor}
	var pol PolicyScore
	for _, u := range sampled {
		recs, err := r.fetchStored(ctx, u)
		if err != nil {
			return Score{}, err
		}
		truth := plan.Trajectory(u)

		checked, violations, exact, err := countViolations(plan.Grid, graphs, truth, recs)
		if err != nil {
			return Score{}, fmt.Errorf("scenario score: user %d: %w", u, err)
		}
		pol.Checked += checked
		pol.Violations += violations
		pol.ExactDisclosures += exact

		rows, err := likelihoodRows(plan.Grid, mechs, recs)
		if err != nil {
			return Score{}, fmt.Errorf("scenario score: user %d: %w", u, err)
		}
		path, err := markov.Viterbi(plan.Chain, nil, rows)
		if err != nil {
			return Score{}, fmt.Errorf("scenario score: user %d: viterbi: %w", u, err)
		}
		errSum, exactHits := 0.0, 0
		for t := range path {
			errSum += dist(plan.Grid, path[t], truth[t])
			if path[t] == truth[t] {
				exactHits++
			}
		}
		steps := float64(len(path))
		adv.TrackingError += errSum / steps / float64(len(sampled))
		adv.ExactRate += float64(exactHits) / steps / float64(len(sampled))
		adv.TopKRate += topKRate(plan.Chain, rows, truth, r.cfg.TopK) / float64(len(sampled))
	}

	util, err := r.densityUtility(ctx)
	if err != nil {
		return Score{}, err
	}

	return Score{
		TraceDigest:    foldDigest(r.traceH),
		ReleaseDigest:  foldDigest(r.relH),
		Waves:          len(plan.Waves),
		InfectedCells:  len(plan.InfectedCells()),
		PolicyVersions: len(mechs),
		Adversary:      adv,
		Policy:         pol,
		Utility:        util,
	}, nil
}

// sampleUsers picks n users evenly spaced over [0, users).
func sampleUsers(users, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * users / n
	}
	return out
}

// fetchStored reads back one user's stored records and verifies their
// integrity: exactly one record per timestep, coordinates identical to
// the releases this run sent (the running release digest).
func (r *runner) fetchStored(ctx context.Context, u int) ([]server.Record, error) {
	recs, err := r.client.RecordsContext(ctx, u)
	if err != nil {
		return nil, fmt.Errorf("scenario score: reading user %d records: %w", u, err)
	}
	if len(recs) != r.plan.Steps {
		return nil, fmt.Errorf("scenario score: user %d has %d stored records, want %d",
			u, len(recs), r.plan.Steps)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
	h := fnvOffset
	for t, rec := range recs {
		if rec.T != t {
			return nil, fmt.Errorf("scenario score: user %d stored timesteps not dense at %d", u, t)
		}
		h = fnvU64(fnvU64(h, math.Float64bits(rec.Point.X)), math.Float64bits(rec.Point.Y))
	}
	if h != r.relH[u] {
		return nil, fmt.Errorf("scenario score: user %d stored coordinates differ from sent releases", u)
	}
	return recs, nil
}

// countViolations audits stored records against the policy graphs they
// were accepted under: a record that exactly discloses a truth cell the
// graph still protects (degree > 0) is a violation; exact disclosure of
// an isolated cell is the intended infected-place behavior.
func countViolations(grid *geo.Grid, graphs map[int]*policygraph.Graph, truth []int, recs []server.Record) (checked, violations, exactDisclosures int, err error) {
	for _, rec := range recs {
		if rec.T < 0 || rec.T >= len(truth) {
			return 0, 0, 0, fmt.Errorf("record timestep %d outside truth range [0, %d)", rec.T, len(truth))
		}
		g, ok := graphs[rec.PolicyVersion]
		if !ok {
			return 0, 0, 0, fmt.Errorf("record at t %d under unknown policy v%d", rec.T, rec.PolicyVersion)
		}
		checked++
		s := truth[rec.T]
		if !geo.AlmostEqual(rec.Point, grid.Center(s), exactTol) {
			continue
		}
		if g.Degree(s) > 0 {
			violations++
		} else {
			exactDisclosures++
		}
	}
	return checked, violations, exactDisclosures, nil
}

// likelihoodRows builds the adversary's per-timestep observation
// likelihoods from stored records: row[s] = P(stored point | true cell
// s) under the record's mechanism. A +Inf likelihood (the mechanism's
// exact-disclosure signal) collapses the row to a one-hot.
func likelihoodRows(grid *geo.Grid, mechs map[int]mechanism.Mechanism, recs []server.Record) ([][]float64, error) {
	n := grid.NumCells()
	rows := make([][]float64, len(recs))
	for i, rec := range recs {
		m, ok := mechs[rec.PolicyVersion]
		if !ok {
			return nil, fmt.Errorf("record at t %d under unknown policy v%d", rec.T, rec.PolicyVersion)
		}
		row := make([]float64, n)
		for s := 0; s < n; s++ {
			l := m.Likelihood(s, rec.Point)
			if math.IsInf(l, 1) {
				row = make([]float64, n)
				row[s] = 1
				break
			}
			row[s] = l
		}
		rows[i] = row
	}
	return rows, nil
}

// topKRate runs the adversary's forward filter (predict with the
// mobility chain, update with the observation likelihood) and returns
// the fraction of timesteps the truth cell landed in the top-k belief
// set. Ties rank lower cell IDs first — the deterministic tie-break.
func topKRate(chain *markov.Chain, rows [][]float64, truth []int, k int) float64 {
	n := chain.NumStates()
	belief := make([]float64, n)
	for s := range belief {
		belief[s] = 1 / float64(n)
	}
	hits := 0
	for t, row := range rows {
		if t > 0 {
			belief = chain.Step(belief)
		}
		sum := 0.0
		for s := range belief {
			belief[s] *= row[s]
			sum += belief[s]
		}
		if sum == 0 {
			// Infeasible under the chain: restart from the observation.
			copy(belief, row)
			for _, v := range row {
				sum += v
			}
			if sum == 0 {
				for s := range belief {
					belief[s] = 1 / float64(n)
				}
				sum = 1
			}
		}
		for s := range belief {
			belief[s] /= sum
		}
		if beliefRank(belief, truth[t]) < k {
			hits++
		}
	}
	return float64(hits) / float64(len(rows))
}

// beliefRank returns the 0-based rank of target in the belief ordering
// (descending probability, ties by ascending cell ID).
func beliefRank(belief []float64, target int) int {
	rank := 0
	bt := belief[target]
	for s, v := range belief {
		if v > bt || (v == bt && s < target) {
			rank++
		}
	}
	return rank
}

// densityUtility compares the released per-region density (as the
// analytics surface served it) against the ground-truth density of the
// regenerated trajectories, normalized to [0, 1].
func (r *runner) densityUtility(ctx context.Context) (UtilityScore, error) {
	plan := r.plan
	ts := r.densityTimesteps()
	regions := plan.Grid.NumRegions(densityBlocks, densityBlocks)
	trueCounts := make(map[int][]int, len(ts))
	for _, t := range ts {
		trueCounts[t] = make([]int, regions)
	}
	var mu sync.Mutex
	err := forEach(ctx, r.cfg.Workers, r.plan.Users, func(u int) error {
		traj := plan.Trajectory(u)
		mu.Lock()
		for _, t := range ts {
			trueCounts[t][plan.Grid.RegionOf(traj[t], densityBlocks, densityBlocks)]++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return UtilityScore{}, fmt.Errorf("scenario score: density truth: %w", err)
	}
	l1 := 0
	for _, t := range ts {
		r.relMu.Lock()
		rel := r.relDensity[t]
		r.relMu.Unlock()
		if len(rel) != regions {
			return UtilityScore{}, fmt.Errorf("scenario score: density at t %d has %d regions, want %d",
				t, len(rel), regions)
		}
		for i := range rel {
			d := rel[i] - trueCounts[t][i]
			if d < 0 {
				d = -d
			}
			l1 += d
		}
	}
	return UtilityScore{
		DensityL1: float64(l1) / float64(2*plan.Users*len(ts)),
		Timesteps: len(ts),
	}, nil
}
