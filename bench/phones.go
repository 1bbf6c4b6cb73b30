package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/scenario"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
	"github.com/pglp/panda/internal/server/wire"
)

// planSteps is the length of each user's ground-truth trajectory (ten
// days of the commuter rhythm). Report timesteps keep growing past it
// so every key is fresh; timestep t is spent at step t mod planSteps.
const planSteps = 240

// hotspotCount is how many of the city's busiest cells the inputs rank;
// infection marks take them in order.
const hotspotCount = 32

// inputs is everything a run generates from its seed before set-up:
// the city, each user's trajectory, the hotspots and the schedules. The
// server never sees any of it except as requests.
type inputs struct {
	grid     *geo.Grid
	seed     uint64
	users    int
	traj     [][]int16 // per user, one cell per plan step
	hotspots []int     // cells ranked by visits, busiest first
	closed   []task    // closed-loop phase, in order
	open     []task    // open-loop phase, by due time
}

func newInputs(w *workload, cfg runConfig) (*inputs, error) {
	gen, err := scenario.Lookup("commuter")
	if err != nil {
		return nil, err
	}
	plan, err := gen.Plan(scenario.Config{Users: cfg.sizes.users, Steps: planSteps, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{grid: plan.Grid, seed: cfg.seed, users: plan.Users, traj: make([][]int16, plan.Users)}
	visits := make([]int, plan.Grid.NumCells())
	for u := range in.traj {
		cells := plan.Trajectory(u)
		tr := make([]int16, len(cells))
		for i, c := range cells {
			tr[i] = int16(c)
			visits[c]++
		}
		in.traj[u] = tr
	}
	in.hotspots = rankCells(visits, hotspotCount)
	w.schedule(in, cfg)
	return in, nil
}

// cell is user u's true cell at timestep t.
func (in *inputs) cell(u, t int) int { return int(in.traj[u][t%planSteps]) }

// rankCells returns the n most visited cells, ties by ascending cell.
func rankCells(visits []int, n int) []int {
	cells := make([]int, len(visits))
	for i := range cells {
		cells[i] = i
	}
	sort.SliceStable(cells, func(i, j int) bool { return visits[cells[i]] > visits[cells[j]] })
	return cells[:min(n, len(cells))]
}

// phones is the client side of one set-up: the policy version each user
// perturbs under, the mechanism built for each version, and what the
// server acknowledged from each user.
type phones struct {
	in *inputs
	tr *tracer

	mu      sync.Mutex
	mechs   map[int]mechanism.Mechanism
	graphs  map[int]*policygraph.Graph
	builds  int
	buildNS int64

	version []atomic.Int64
	acked   []atomic.Int64  // records acknowledged per user
	digest  []atomic.Uint64 // sum of releaseHash over acknowledged records
}

func newPhones(in *inputs, tr *tracer) *phones {
	return &phones{
		in:      in,
		tr:      tr,
		mechs:   map[int]mechanism.Mechanism{},
		graphs:  map[int]*policygraph.Graph{},
		version: make([]atomic.Int64, in.users),
		acked:   make([]atomic.Int64, in.users),
		digest:  make([]atomic.Uint64, in.users),
	}
}

// adopt moves user u to the fetched policy, building the GLM mechanism
// the first time a version is seen: every user shares the default
// policy, so one build serves a whole version.
func (p *phones) adopt(u int, cp server.ClientPolicy) error {
	if cp.Graph == nil {
		return fmt.Errorf("policy v%d for user %d has no graph", cp.Version, u)
	}
	p.mu.Lock()
	if _, ok := p.mechs[cp.Version]; !ok {
		start := time.Now()
		m, err := mechanism.New(mechanism.KindGLM, p.in.grid, cp.Graph, cp.Epsilon)
		if err != nil {
			p.mu.Unlock()
			return err
		}
		p.buildNS += int64(time.Since(start))
		p.builds++
		p.mechs[cp.Version] = m
		p.graphs[cp.Version] = cp.Graph
	}
	p.mu.Unlock()
	for {
		cur := p.version[u].Load()
		if int64(cp.Version) <= cur || p.version[u].CompareAndSwap(cur, int64(cp.Version)) {
			return nil
		}
	}
}

func (p *phones) graph(version int) (*policygraph.Graph, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.graphs[version]
	return g, ok
}

// perturb releases user u's true cells for timesteps [t0, t0+n) under
// the mechanism of the user's current policy version. The noise stream
// is keyed by (seed, user, t0), so a batch's releases depend only on
// the inputs and the version it was perturbed under.
func (p *phones) perturb(u, t0, n int) ([]wire.Release, error) {
	v := int(p.version[u].Load())
	p.mu.Lock()
	m, ok := p.mechs[v]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("user %d has no mechanism for policy v%d", u, v)
	}
	var start time.Time
	if p.tr.enabled() {
		start = time.Now()
	}
	rng := rand.New(rand.NewPCG(p.in.seed, uint64(u)<<32|uint64(uint32(t0))))
	out := make([]wire.Release, n)
	for i := range out {
		t := t0 + i
		z, err := m.Release(rng, p.in.cell(u, t))
		if err != nil {
			return nil, err
		}
		out[i] = wire.Release{T: t, X: z.X, Y: z.Y}
	}
	if p.tr.enabled() {
		p.tr.releaseNS.Add(int64(time.Since(start)))
		p.tr.releases.Add(int64(n))
	}
	return out, nil
}

// ack records releases the server acknowledged for user u.
func (p *phones) ack(u int, rel []wire.Release) {
	var h uint64
	for _, r := range rel {
		h += releaseHash(r.T, r.X, r.Y)
	}
	p.acked[u].Add(int64(len(rel)))
	p.digest[u].Add(h)
}

// checkStored verifies that the store holds exactly what the server
// acknowledged: per user, the record count and the order-free digest of
// (t, x, y) over every record. Together they pin every sent (user, t)
// key and its coordinates.
func (p *phones) checkStored(st storage.Store) error {
	total := int64(0)
	for u := 0; u < p.in.users; u++ {
		recs := st.UserRecords(u)
		want := p.acked[u].Load()
		total += want
		if int64(len(recs)) != want {
			return fmt.Errorf("user %d: %d records stored, %d acknowledged", u, len(recs), want)
		}
		var h uint64
		for _, r := range recs {
			h += releaseHash(r.T, r.Point.X, r.Point.Y)
		}
		if h != p.digest[u].Load() {
			return fmt.Errorf("user %d: stored coordinates differ from the acknowledged releases", u)
		}
	}
	if n := st.Len(); int64(n) != total {
		return fmt.Errorf("store holds %d records, %d acknowledged", n, total)
	}
	return nil
}

func (p *phones) report(m map[string]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m["mechanism.builds"] = float64(p.builds)
	if p.builds > 0 {
		m["mechanism.build_ms"] = float64(p.buildNS) / float64(p.builds) / 1e6
	}
}

// releaseHash mixes one release into a 64-bit value; digests sum them,
// so they do not depend on the order records are stored or read back.
func releaseHash(t int, x, y float64) uint64 {
	h := mix64(uint64(t) + 0x9e3779b97f4a7c15)
	h = mix64(h ^ math.Float64bits(x))
	return mix64(h ^ math.Float64bits(y))
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
